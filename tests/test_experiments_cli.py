"""The experiment framework: registry, sharded runner, store, CLI.

Covers the PR 4 acceptance surface: registry completeness against
EXPERIMENTS.md (and the benchmarks' delegation to registry entries),
serial-vs-parallel digest equality, content-hash cache hit/invalidation,
the ``run``/``list``/``describe``/``--filter``/``diff`` CLI paths, and
the ``BENCH_*.json`` writer/reader pair.
"""

import json
import re
from pathlib import Path

import pytest

from repro.analysis.grids import compare_grid_payloads
from repro.experiments import (
    ExperimentSpec,
    ResultStore,
    TaskResult,
    all_experiments,
    derive_seed,
    expand_tasks,
    experiment_ids,
    get_experiment,
    main,
    run_experiment,
    run_experiments,
)
from repro.experiments.catalog import (
    broadcast_storm,
    deployment_t,
    recorder_sim_net,
)
from repro.experiments.store import (
    BENCH_SCHEMA_VERSION,
    NotAGridArtifact,
    load_bench_json,
    write_bench_json,
)
from repro.analysis import PROTOCOLS

REPO_ROOT = Path(__file__).resolve().parents[1]

#: Cheap deterministic experiments used for runner-level tests.
CHEAP = ("E2", "E4", "E11")


# ---------------------------------------------------------------------------
# Registry completeness
# ---------------------------------------------------------------------------


class TestRegistryCompleteness:
    def experiments_md_ids(self):
        text = (REPO_ROOT / "EXPERIMENTS.md").read_text(encoding="utf-8")
        ids = re.findall(r"^\| (E\d+) \|", text, flags=re.MULTILINE)
        assert ids, "EXPERIMENTS.md table not found"
        return ids

    def test_every_experiments_md_id_is_registered(self):
        registered = set(experiment_ids())
        for exp_id in self.experiments_md_ids():
            assert exp_id in registered, f"{exp_id} listed but not registered"

    def test_every_registered_id_is_documented(self):
        documented = set(self.experiments_md_ids())
        for exp_id in experiment_ids():
            assert exp_id in documented, f"{exp_id} registered but not in EXPERIMENTS.md"

    def test_registry_covers_e1_to_e21(self):
        # Ids 16 and 20 are retired (see EXPERIMENTS.md) and not reused.
        assert experiment_ids() == [
            f"E{i}" for i in range(1, 22) if i not in (16, 20)
        ]

    def test_lookup_by_id_and_name(self):
        assert get_experiment("E1") is get_experiment("resilience")
        assert get_experiment("e15") is get_experiment("throughput")
        with pytest.raises(KeyError):
            get_experiment("E99")

    def test_benchmarks_delegate_to_registry_entries(self):
        """Every bench_e*.py must fetch its rows from its registry entry
        (no duplicated sweep loops): it references the conftest
        ``sections`` helper with its own experiment id."""
        bench_dir = REPO_ROOT / "benchmarks"
        scripts = sorted(bench_dir.glob("bench_e*.py"))
        assert len(scripts) == 19
        for script in scripts:
            exp_id = "E" + re.match(r"bench_e(\d+)_", script.name).group(1)
            text = script.read_text(encoding="utf-8")
            delegates = re.search(
                rf"""\bsections\(\s*['"]{exp_id}['"]""", text
            )
            assert delegates, f"{script.name} does not delegate to {exp_id}"
            # The old hand-rolled sweeps built process lists in the
            # benchmark itself; wrappers must not.
            assert "Cluster(" not in text, script.name

    def test_specs_have_sections_and_grids(self):
        for spec in all_experiments():
            assert spec.grid, spec.id
            assert spec.columns, spec.id
            quick = spec.grid_for(quick=True)
            assert quick, spec.id
            assert len(quick) <= len(spec.grid)


# ---------------------------------------------------------------------------
# Deterministic seeds and task identity
# ---------------------------------------------------------------------------


class TestTaskIdentity:
    def test_seed_depends_only_on_id_and_params(self):
        assert derive_seed("E2", {"f": 1}) == derive_seed("E2", {"f": 1})
        assert derive_seed("E2", {"f": 1}) != derive_seed("E2", {"f": 2})
        assert derive_seed("E2", {"f": 1}) != derive_seed("E3", {"f": 1})

    def test_expand_tasks_orders_and_filters(self):
        spec = get_experiment("E5")
        tasks = expand_tasks(spec)
        assert [t.index for t in tasks] == sorted(t.index for t in tasks)
        filtered = expand_tasks(spec, filters={"f": "2"})
        assert filtered
        assert all(t.params["f"] == 2 for t in filtered)
        # Filter keys absent from a grid point exclude the point.
        assert expand_tasks(spec, filters={"nope": "1"}) == []


# ---------------------------------------------------------------------------
# Serial == parallel
# ---------------------------------------------------------------------------


class TestSerialParallelEquality:
    def test_digest_and_rows_identical_across_three_experiments(self):
        serial = run_experiments(
            [get_experiment(exp_id) for exp_id in CHEAP], parallel=1, quick=True
        )
        parallel = run_experiments(
            [get_experiment(exp_id) for exp_id in CHEAP], parallel=2, quick=True
        )
        for s_result, p_result in zip(serial, parallel):
            assert s_result.grid_digest == p_result.grid_digest, s_result.spec.id
            assert s_result.sections == p_result.sections, s_result.spec.id
        comparison = compare_grid_payloads(
            [r.to_payload() for r in serial],
            [r.to_payload() for r in parallel],
        )
        assert comparison.ok, comparison.summary()

    def test_comparison_flags_divergence(self):
        (result,) = run_experiments([get_experiment("E2")], quick=True)
        left = result.to_payload()
        right = json.loads(json.dumps(left))
        right["grid_digest"] = "0" * 64
        right["sections"]["main"]["rows"][0][2] = 99
        comparison = compare_grid_payloads([left], [right])
        assert not comparison.ok
        assert "E2" in comparison.digest_mismatches
        assert comparison.row_diffs["E2"]


# ---------------------------------------------------------------------------
# Result store: cache hits and invalidation
# ---------------------------------------------------------------------------


class TestResultStore:
    def test_cache_hit_serves_identical_results(self, tmp_path):
        store = ResultStore(str(tmp_path), version="v1")
        first = run_experiment("E2", quick=True, store=store)
        assert first.tasks_cached == 0
        second = run_experiment("E2", quick=True, store=store)
        assert second.tasks_cached == second.tasks_total
        assert second.grid_digest == first.grid_digest
        assert second.sections == first.sections

    def test_code_version_change_invalidates(self, tmp_path):
        store_v1 = ResultStore(str(tmp_path), version="v1")
        run_experiment("E2", quick=True, store=store_v1)
        store_v2 = ResultStore(str(tmp_path), version="v2")
        rerun = run_experiment("E2", quick=True, store=store_v2)
        assert rerun.tasks_cached == 0

    def test_param_change_is_a_miss(self, tmp_path):
        store = ResultStore(str(tmp_path), version="v1")
        run_experiment("E2", quick=True, store=store)
        full = run_experiment("E2", quick=False, store=store)
        # Quick grid (f=1,2) is a prefix of the full grid (f=1..4).
        assert full.tasks_cached == 2
        assert full.tasks_total == 4

    def test_force_reruns_but_keeps_rows(self, tmp_path):
        store = ResultStore(str(tmp_path), version="v1")
        first = run_experiment("E2", quick=True, store=store)
        forced = run_experiment("E2", quick=True, store=store, force=True)
        assert forced.tasks_cached == 0
        assert forced.grid_digest == first.grid_digest

    def test_non_cacheable_specs_never_cache(self, tmp_path):
        # E21, the one wall-clock grid: the storm, recorder off and on.
        spec = get_experiment("E21")
        assert not spec.cacheable and not spec.deterministic
        for quick in (False, True):
            assert [p["variant"] for p in spec.grid_for(quick=quick)] == [
                "off", "recorder",
            ]
        store = ResultStore(str(tmp_path), version="v1")
        only_off = {"variant": "off"}
        first = run_experiment(spec, quick=True, store=store, filters=only_off)
        again = run_experiment(spec, quick=True, store=store, filters=only_off)
        assert again.tasks_total == 1 and again.tasks_cached == 0
        ((workload, variant, _backend, unit, rate),) = again.rows("main")
        assert (workload, variant, unit) == ("broadcast_storm", "off", "events/sec")
        assert rate > 0
        # The digest covers which cell ran, never the measured rate.
        assert again.grid_digest == first.grid_digest

    def test_the_storm_runs_bare_and_recorded(self):
        # A tiny instance: this validates the E21 driver, not its speed.
        assert broadcast_storm(3, 5) > 0.0
        assert broadcast_storm(3, 5, recorder_sim_net) > 0.0


# ---------------------------------------------------------------------------
# The E1 satellite fix: deployments at the right t
# ---------------------------------------------------------------------------


class TestE1DeploymentT:
    def test_deployment_t_semantics(self):
        assert deployment_t("fbft", 3) == 3
        assert deployment_t("fab", 2) == 2
        assert deployment_t("pbft", 3) == 1
        assert deployment_t("paxos", 4) == 1
        assert deployment_t("optimistic", 2) == 1

    def test_e1_deploy_rows_record_the_t_used(self):
        result = run_experiment("E1", quick=True, filters={"section": "deploy"})
        rows = result.rows("deploy")
        assert rows
        by_name = {spec.name: spec for spec in PROTOCOLS.values()}
        assert any(row[1] > 1 for row in rows)
        for name, f, t, n, delays, decided in rows:
            assert decided
            expected_t = f if by_name[name].parameterized_by_t else 1
            assert t == expected_t, (name, f, t)


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


class TestCLI:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for exp_id in experiment_ids():
            assert exp_id in out

    def test_describe(self, capsys):
        assert main(["describe", "E13", "--grid"]) == 0
        out = capsys.readouterr().out
        assert "scalability" in out
        assert "grid" in out
        assert '"f": 1' in out

    def test_run_single_with_filter(self, capsys, tmp_path):
        code = main(
            ["run", "E2", "--filter", "f=1", "--cache", str(tmp_path)]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "fast-path" in out
        assert "tasks=1" in out

    def test_run_writes_artifacts_and_diff_agrees(self, capsys, tmp_path):
        out_dir = tmp_path / "out"
        code = main(
            [
                "run", "E2", "E11", "--quick", "--no-cache",
                "--json", str(out_dir),
            ]
        )
        assert code == 0
        capsys.readouterr()
        aggregate = out_dir / "BENCH_experiments.json"
        assert aggregate.exists()
        artifact = load_bench_json(str(out_dir / "BENCH_E2_fast-path.json"))
        assert artifact["schema_version"] == 2
        assert artifact["experiment"]["grid_digest"]
        assert artifact["results"]["main"]["rows"]
        assert main(["diff", str(aggregate), str(aggregate)]) == 0
        assert "agree" in capsys.readouterr().out

    def test_diff_detects_mismatch(self, capsys, tmp_path):
        out_dir = tmp_path / "out"
        assert main(
            ["run", "E2", "--quick", "--no-cache", "--json", str(out_dir)]
        ) == 0
        aggregate = out_dir / "BENCH_experiments.json"
        payload = json.loads(aggregate.read_text())
        payload["experiments"][0]["grid_digest"] = "f" * 64
        tampered = tmp_path / "tampered.json"
        tampered.write_text(json.dumps(payload))
        capsys.readouterr()
        assert main(["diff", str(aggregate), str(tampered)]) == 1
        assert "MISMATCH" in capsys.readouterr().out

    def test_diff_of_a_grid_on_one_side_only_is_a_mismatch(self, capsys, tmp_path):
        assert main(
            ["run", "E2", "E11", "--quick", "--no-cache", "--json", str(tmp_path)]
        ) == 0
        capsys.readouterr()
        both = str(tmp_path / "BENCH_experiments.json")
        one = str(tmp_path / "BENCH_E2_fast-path.json")
        assert main(["diff", both, one]) == 1
        assert "E11: only in left run" in capsys.readouterr().out
        assert main(["diff", one, one]) == 0

    #: What ``diff`` must refuse: how to make the file, what stderr says.
    NOT_COMPARABLE = {
        "bench-script-summary": (  # what bench_e18 --output writes
            lambda path: write_bench_json(
                str(path), "E18", {"p99_on": 8.0},
                extra={"experiment": {"id": "E18", "rows": []}},
            ),
            "not an experiment-grid artifact",
        ),
        "bare-envelope": (
            lambda path: path.write_text(
                json.dumps({"schema_version": BENCH_SCHEMA_VERSION})
            ),
            "not an experiment-grid artifact",
        ),
        "aggregate-without-digests": (
            lambda path: path.write_text(json.dumps({"experiments": [{"id": "E2"}]})),
            "not an experiment-grid artifact",
        ),
        "malformed-json": (
            lambda path: path.write_text("{not json"), "malformed JSON",
        ),
        "not-an-object": (
            lambda path: path.write_text("[]"), "unsupported BENCH json schema",
        ),
        "missing-file": (lambda path: None, "No such file"),
    }

    @pytest.mark.parametrize("case", sorted(NOT_COMPARABLE))
    def test_diff_refuses_what_it_cannot_compare(self, capsys, tmp_path, case):
        """Exit 2 and one line on stderr — never a traceback, and never
        ``OK: 1 experiment grids agree`` over two records without a grid."""
        make, said = self.NOT_COMPARABLE[case]
        path = tmp_path / "input.json"
        make(path)
        assert main(["diff", str(path), str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        (line,) = captured.err.splitlines()
        assert line.startswith("diff: ") and said in line and path.name in line

    def test_run_verify_serial_gate(self, capsys, tmp_path):
        code = main(
            [
                "run", "E11", "--quick", "--parallel", "2",
                "--cache", str(tmp_path), "--verify-serial",
            ]
        )
        assert code == 0
        assert "serial-vs-parallel digest check: OK" in capsys.readouterr().out

    def test_run_without_experiments_errors(self, capsys):
        assert main(["run"]) == 2

    def test_unknown_experiment_errors(self):
        with pytest.raises(SystemExit):
            main(["run", "nope"])

    def test_the_grammar_is_the_four_subcommands(self, capsys):
        # No pre-framework spellings: a bare experiment name, ``--list``
        # or no arguments at all are usage errors, not rewritten to
        # ``run``; and a name resolves only if a registry entry has it.
        for argv in (["ablation", "--quick"], ["--list"], []):
            with pytest.raises(SystemExit) as usage:
                main(argv)
            assert usage.value.code == 2
            assert "{list,describe,run,diff}" in capsys.readouterr().err
        for retired in ("quorums", "profile"):
            with pytest.raises(KeyError):
                get_experiment(retired)


# ---------------------------------------------------------------------------
# BENCH_*.json records
# ---------------------------------------------------------------------------


class TestBenchJson:
    GRID = {"experiment": {"id": "X1", "grid_digest": "d" * 64}}

    def test_roundtrip(self, tmp_path):
        path = tmp_path / "BENCH_X.json"
        written = write_bench_json(
            str(path), "X", {"metric": 1.5}, meta={"quick": True},
            extra={**self.GRID, "monitor_metrics": {"replica.1.demotions": 1}},
        )
        assert written["schema_version"] == BENCH_SCHEMA_VERSION
        loaded = load_bench_json(str(path))
        assert loaded["bench"] == "X"
        assert loaded["results"] == {"metric": 1.5}
        assert loaded["meta"] == {"quick": True}
        assert loaded["python"]
        # Extra top-level blocks survive untouched next to the envelope.
        assert loaded["experiment"] == self.GRID["experiment"]
        assert loaded["monitor_metrics"]["replica.1.demotions"] == 1

    def test_schema_mismatch_rejected(self, tmp_path):
        path = tmp_path / "BENCH_BAD.json"
        path.write_text(json.dumps({"schema_version": 999, **self.GRID}))
        with pytest.raises(ValueError, match="schema"):
            load_bench_json(str(path))

    def test_a_record_without_a_grid_is_rejected_by_type(self, tmp_path):
        path = tmp_path / "BENCH_E19.json"
        write_bench_json(str(path), "E19", {"unique_guided": 40})
        with pytest.raises(NotAGridArtifact, match="BENCH_E19.json"):
            load_bench_json(str(path))


# ---------------------------------------------------------------------------
# Custom out-of-tree specs (the examples/experiment_grid.py contract)
# ---------------------------------------------------------------------------


def _toy_driver(params, seed):
    return TaskResult(rows=[("main", [params["x"], params["x"] ** 2, seed % 7])])


class TestOutOfTreeSpec:
    def test_run_experiments_accepts_unregistered_specs(self):
        spec = ExperimentSpec(
            id="X1",
            name="toy",
            title="squares",
            paper_ref="none",
            driver=_toy_driver,
            grid=[{"x": x} for x in (1, 2, 3)],
            columns={"main": ("x", "x^2", "seed%7")},
        )
        result = run_experiment(spec)
        assert [row[:2] for row in result.rows("main")] == [
            [1, 1], [2, 4], [3, 9],
        ]
        # Seeds derive from (id, params): stable across runs.
        again = run_experiment(spec)
        assert again.grid_digest == result.grid_digest
