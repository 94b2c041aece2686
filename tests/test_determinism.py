"""Golden-trace determinism: the fast path may never reorder executions.

Every canonical scenario is run twice and its trace digest (sends +
decisions + event counters, see :mod:`repro.sim.digest`) must be equal
run-to-run, **and** equal to the golden digest recorded against the
pre-optimization simulation core in ``tests/golden/scenario_digests.json``.
An optimization that changes any digest has changed the executions the
paper reasons about and must be rejected (or, if the scenario library
itself deliberately changed, the golden file regenerated with
``python -m repro.scenarios digest --update tests/golden/scenario_digests.json``).
"""

import json
from pathlib import Path

import pytest

from repro.scenarios.library import SCENARIOS, get_scenario
from repro.scenarios.runner import run_scenario
from repro.scenarios.spec import DelaySpec, ScenarioSpec

GOLDEN_PATH = Path(__file__).parent / "golden" / "scenario_digests.json"


def _golden() -> dict:
    with GOLDEN_PATH.open(encoding="utf-8") as fh:
        return json.load(fh)


@pytest.fixture(scope="module")
def first_run():
    """``name -> result`` of one run per canonical scenario, made on first
    request and shared by the two sweeps below."""
    results = {}

    def run(name):
        if name not in results:
            results[name] = run_scenario(get_scenario(name))
        return results[name]

    return run


class TestCanonicalScenarioDigests:
    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    def test_run_to_run_deterministic(self, first_run, name):
        first = first_run(name)
        second = run_scenario(get_scenario(name))
        assert first.trace_digest == second.trace_digest, (
            f"scenario {name} produced different executions on identical runs"
        )

    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    def test_matches_pre_optimization_golden(self, first_run, name):
        golden = _golden()
        assert name in golden, (
            f"scenario {name} has no golden digest; regenerate with "
            f"python -m repro.scenarios digest --update {GOLDEN_PATH}"
        )
        result = first_run(name)
        assert result.trace_digest == golden[name], (
            f"scenario {name} diverged from the pre-optimization core's "
            f"execution — the fast path reordered something"
        )

    def test_golden_file_covers_exactly_the_library(self):
        assert set(_golden()) == set(SCENARIOS)


class TestDigestSensitivity:
    """The digest must actually distinguish different executions."""

    def test_different_scenarios_have_different_digests(self):
        digests = {
            run_scenario(get_scenario(name)).trace_digest
            for name in ("fast-path-clean", "slow-path-commit", "pbft-clean")
        }
        assert len(digests) == 3

    def test_cluster_digest_tracks_message_timing(self):
        def run_with(delta):
            spec = ScenarioSpec(
                name="fbft-minimal", delay=DelaySpec(kind="round", delta=delta),
                timeout=500.0,
            )
            return run_scenario(spec).trace_digest

        assert run_with(1.0) == run_with(1.0)
        assert run_with(1.0) != run_with(2.0)
