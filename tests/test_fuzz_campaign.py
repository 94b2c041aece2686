"""Coverage-guided fuzzing: signatures, corpus, mutators, campaigns.

The load-bearing claims:

* generated schedules are deterministic per seed and survivable, and
  shrinking keeps paired faults together while stripping chaff;
* signatures are deterministic, behavioral (spec knobs that change
  nothing about the run do not appear), and bucketed so noise is not
  novelty;
* the corpus admits exactly one exemplar per signature, schedules by
  energy, minimizes to a feature set cover, and round-trips through
  canonical JSON byte-for-byte;
* mutants are always structurally valid, survivable (fault budgets
  respected, pairs kept together) and claim-free;
* campaigns are deterministic — same corpus + seed + budget gives a
  byte-identical report digest, serial or sharded — and the guided arm
  discovers strictly more unique signatures than the blind arm at an
  equal seed budget (the acceptance claim).
"""

import json

from pathlib import Path
from random import Random
from types import SimpleNamespace

import pytest

from repro.fuzz import (
    CampaignConfig,
    Corpus,
    MUTATORS,
    PAYLOAD_TYPES,
    generate_scenario,
    mutate,
    run_blind,
    run_campaign,
    shrink_spec,
    signature_features,
    signature_key,
)
from repro.fuzz.cli import main as fuzz_main
from repro.fuzz.generator import _paired_removals
from repro.fuzz.signature import _count_bucket, _margin_bucket, _small_bucket
from repro.scenarios import run_scenario
from repro.scenarios.library import get_scenario
from repro.scenarios.spec import (
    Crash,
    DelayRuleOff,
    DelayRuleOn,
    PartitionHeal,
    PartitionStart,
    Recover,
    ScenarioError,
    ScenarioSpec,
)


def _coverage(seed: int):
    return run_scenario(generate_scenario(seed)).coverage


# ---------------------------------------------------------------------------
# Generator and shrinker
# ---------------------------------------------------------------------------


class TestGenerator:
    def test_same_seed_same_spec(self):
        assert generate_scenario(42) == generate_scenario(42)

    def test_different_seeds_differ_somewhere(self):
        specs = [generate_scenario(seed) for seed in range(20)]
        assert len({spec.to_dict().__repr__() for spec in specs}) > 1

    def test_generated_specs_validate(self):
        for seed in range(50):
            generate_scenario(seed).validate()

    def test_generated_specs_respect_fault_budget(self):
        for seed in range(50):
            spec = generate_scenario(seed)
            assert len(spec.faulty_pids) <= spec.f

    def test_partitions_always_heal(self):
        for seed in range(80):
            spec = generate_scenario(seed)
            starts = [e for e in spec.faults if isinstance(e, PartitionStart)]
            heals = [e for e in spec.faults if isinstance(e, PartitionHeal)]
            assert len(starts) == len(heals)
            for start, heal in zip(starts, heals):
                assert heal.at > start.at

    def test_delay_rules_always_lift(self):
        for seed in range(80):
            spec = generate_scenario(seed)
            ons = {e.name for e in spec.faults if isinstance(e, DelayRuleOn)}
            offs = {e.name for e in spec.faults if isinstance(e, DelayRuleOff)}
            assert ons == offs

    def test_protocol_restriction_honoured(self):
        for seed in range(20):
            assert generate_scenario(seed, protocols=("pbft",)).protocol == "pbft"


class TestShrinking:
    def test_paired_removals_keep_schedules_well_formed(self):
        spec = generate_scenario(0).with_(
            faults=(
                Crash(at=1.0, pid=1),
                Recover(at=2.0, pid=1),
                PartitionStart(at=3.0, groups=((0,), (1, 2))),
                PartitionHeal(at=9.0),
                DelayRuleOn(at=0.0, name="x", extra_delay=1.0),
                DelayRuleOff(at=5.0, name="x"),
            )
        )
        for faults in _paired_removals(spec):
            starts = sum(isinstance(e, PartitionStart) for e in faults)
            heals = sum(isinstance(e, PartitionHeal) for e in faults)
            assert starts == heals
            ons = {e.name for e in faults if isinstance(e, DelayRuleOn)}
            offs = {e.name for e in faults if isinstance(e, DelayRuleOff)}
            assert ons == offs
            crashed = {e.pid for e in faults if isinstance(e, Crash)}
            recovered = {e.pid for e in faults if isinstance(e, Recover)}
            assert recovered <= crashed

    def test_shrink_drops_irrelevant_chaff(self):
        """Start from the injected-bug reproducer plus unrelated faults;
        shrinking must strip the chaff and keep the essential timing."""
        essential = DelayRuleOn(
            at=0.0, name="stall", src=(1, 2), dst=(3,),
            payload_types=("Ack",), extra_delay=5.0,
        )
        noisy = get_scenario("equivocating-leader").with_(
            name="noisy-bug",
            faults=(
                essential,
                PartitionStart(at=100.0, groups=((0, 1), (2, 3))),
                PartitionHeal(at=110.0),
                DelayRuleOn(at=120.0, name="late", extra_delay=1.0),
                DelayRuleOff(at=130.0, name="late"),
            ),
            protocol_options={"fast_quorum_delta": 1},
        )
        assert not run_scenario(noisy).ok  # the bug fires despite the noise
        shrunk = shrink_spec(noisy, lambda s: not run_scenario(s).ok)
        assert shrunk.faults == (essential,)
        assert len(shrunk.byzantine) == 1  # the equivocator is essential

    def test_shrink_keeps_spec_failing(self):
        noisy = get_scenario("equivocating-leader").with_(
            name="bug",
            faults=(
                DelayRuleOn(at=0.0, name="stall", src=(1, 2), dst=(3,),
                            payload_types=("Ack",), extra_delay=5.0),
            ),
            protocol_options={"fast_quorum_delta": 1},
        )
        shrunk = shrink_spec(noisy, lambda s: not run_scenario(s).ok)
        assert not run_scenario(shrunk).ok

    def test_shrink_is_noop_on_already_minimal_passing_predicate(self):
        spec = get_scenario("fast-path-clean")
        assert shrink_spec(spec, lambda s: False) == spec

    def test_shrunk_output_never_strands_a_recover(self):
        """Crash/recover ride together through shrinking: a Recover for a
        pid that never crashed would be an invalid schedule, so every
        intermediate candidate and the final result must keep the pair.
        The predicate is synthetic ("the stall rule is the bug") so the
        crash/recover pair is pure chaff the shrinker must drop whole."""
        essential = DelayRuleOn(
            at=0.0, name="stall", src=(1,), dst=(2,), extra_delay=5.0
        )
        noisy = get_scenario("fast-path-clean").with_(
            name="crash-chaff",
            faults=(
                essential,
                Crash(at=10.0, pid=1),
                Recover(at=20.0, pid=1),
            ),
        )
        assert any(isinstance(e, Crash) for e in noisy.faults)
        noisy.validate()

        def still_fails(spec):
            crashed = {e.pid for e in spec.faults if isinstance(e, Crash)}
            recovered = {e.pid for e in spec.faults if isinstance(e, Recover)}
            assert recovered <= crashed, "shrink stranded a Recover"
            return any(
                isinstance(e, DelayRuleOn) and e.name == "stall"
                for e in spec.faults
            )

        shrunk = shrink_spec(noisy, still_fails)
        assert shrunk.faults == (essential,)

    def test_shrink_terminates_within_attempt_budget(self):
        """An always-failing predicate is the worst case for the loop:
        every removal 'succeeds', so it must hit the fixed point (or the
        attempt cap) rather than cycle."""
        spec = generate_scenario(7)
        calls = []
        shrunk = shrink_spec(
            spec, lambda s: calls.append(1) or True, max_attempts=10
        )
        assert len(calls) <= 10
        shrunk.validate()

    def test_shrink_is_idempotent(self):
        noisy = get_scenario("equivocating-leader").with_(
            name="bug",
            faults=(
                DelayRuleOn(at=0.0, name="stall", src=(1, 2), dst=(3,),
                            payload_types=("Ack",), extra_delay=5.0),
                DelayRuleOn(at=50.0, name="late", extra_delay=1.0),
                DelayRuleOff(at=60.0, name="late"),
            ),
            protocol_options={"fast_quorum_delta": 1},
        )
        once = shrink_spec(noisy, lambda s: not run_scenario(s).ok)
        twice = shrink_spec(once, lambda s: not run_scenario(s).ok)
        assert once == twice

    def test_unknown_protocol_rejected_cleanly(self):
        with pytest.raises(ScenarioError, match="unknown fuzz protocols"):
            generate_scenario(0, protocols=("bogus",))


# ---------------------------------------------------------------------------
# Signatures
# ---------------------------------------------------------------------------


class TestSignature:
    def test_deterministic_across_runs(self):
        first = signature_features(_coverage(3))
        second = signature_features(_coverage(3))
        assert first == second
        assert signature_key(first) == signature_key(second)

    def test_key_is_order_insensitive_sha256(self):
        features = ("b:2", "a:1")
        assert signature_key(features) == signature_key(("a:1", "b:2"))
        assert len(signature_key(features)) == 64

    def test_count_buckets_power_of_four(self):
        assert _count_bucket(0) == "0"
        assert _count_bucket(3) == "1"
        assert _count_bucket(4) == "4"
        assert _count_bucket(63) == "16"
        assert _count_bucket(64) == "64"
        assert _count_bucket(10**6) == "1024+"

    def test_small_bucket_saturates(self):
        assert _small_bucket(0) == "0"
        assert _small_bucket(4) == "4"
        assert _small_bucket(9) == "5+"
        assert _small_bucket(3, cap=2) == "2+"

    def test_margin_buckets(self):
        assert _margin_bucket("liveness-after-gst", 0.96) == "q4"
        assert _margin_bucket("liveness-after-gst", 0.05) == "q0"
        assert _margin_bucket("agreement", -2.0) == "-"
        assert _margin_bucket("agreement", 1.0) == "1"
        assert _margin_bucket("agreement", 7.0) == "2+"

    def test_features_are_behavioral_not_spec_shape(self):
        """n/f/t and delay kind never appear: varying inert knobs must
        not read as new coverage."""
        features = signature_features(_coverage(0))
        for feature in features:
            assert not feature.startswith(("shape:", "n:", "f:", "delay:"))
        assert any(feature.startswith("proto:") for feature in features)
        assert any(feature.startswith("path:") for feature in features)
        assert any(feature.startswith("oracle:") for feature in features)

    def test_message_features_are_presence_only(self):
        coverage = _coverage(1)
        assert coverage["msgs"], "expected message traffic"
        features = signature_features(coverage)
        msg_features = [f for f in features if f.startswith("msg:")]
        assert msg_features
        for feature in msg_features:
            assert feature.count(":") == 1, f"volume leaked into {feature}"

    def test_partition_features_bucket_to_way_count(self):
        coverage = dict(_coverage(0))
        coverage["partitions"] = ["1|2|4", "3|4"]
        features = signature_features(coverage)
        assert "part:3way" in features
        assert "part:2way" in features
        assert not any("|" in f for f in features if f.startswith("part:"))


# ---------------------------------------------------------------------------
# Corpus
# ---------------------------------------------------------------------------


def _consider(corpus, spec, coverage, origin, ok, executions=0):
    """``Corpus.consider`` the way the campaign calls it: the signature
    is computed once by the caller."""
    features = signature_features(coverage)
    return corpus.consider(
        spec, features, signature_key(features), origin, ok, executions
    )


def _grown_corpus(seeds=8):
    corpus = Corpus()
    for seed in range(seeds):
        spec = generate_scenario(seed)
        result = run_scenario(spec)
        _consider(
            corpus, spec, result.coverage, origin=f"seed:{seed}",
            ok=result.ok, executions=result.events_processed,
        )
    return corpus


class TestCorpus:
    def test_admission_is_per_signature(self):
        corpus = Corpus()
        spec = generate_scenario(0)
        coverage = run_scenario(spec).coverage
        first = _consider(corpus, spec, coverage, "seed:0", True)
        duplicate = _consider(corpus, spec, coverage, "seed:0b", True)
        assert first is not None
        assert duplicate is None
        assert len(corpus.entries) == 1

    def test_energy_rewards_rare_features_and_decays(self):
        corpus = _grown_corpus()
        entry = corpus.entries[0]
        fresh = corpus.energy(entry)
        entry.chosen = 5
        assert corpus.energy(entry) < fresh

    def test_energy_follows_the_counts_through_every_admission(self):
        """The rarity sum is cached per entry and dropped on admission:
        at every step it equals the sum computed from scratch."""
        corpus = Corpus()
        for seed in range(12):
            spec = generate_scenario(seed)
            result = run_scenario(spec)
            _consider(corpus, spec, result.coverage, f"seed:{seed}", result.ok)
            for _ in range(2):  # the second ask is the cached one
                for entry in corpus.entries:
                    rarity = sum(
                        1.0 / corpus.feature_counts[f] for f in entry.features
                    )
                    assert corpus.energy(entry) == (1.0 + rarity) / (
                        1.0 + entry.chosen
                    )
            corpus.choose(Random(seed))
        assert len(corpus.entries) > 3
        reloaded = Corpus.from_dict(corpus.to_dict())
        assert [reloaded.energy(e) for e in reloaded.entries] == [
            corpus.energy(e) for e in corpus.entries
        ]
        spec = generate_scenario(0)
        assert _consider(
            reloaded, spec, run_scenario(spec).coverage, "again", True
        ) is None  # a loaded corpus knows its keys

    def test_an_entry_shared_by_two_corpora_has_each_one_s_energy(self):
        """``minimize`` shares entry objects with the corpus it reduced;
        a rarity sum cached under one corpus's counts is never served to
        the other."""
        corpus = _grown_corpus(12)
        reduced = corpus.minimize()
        assert 0 < len(reduced.entries) < len(corpus.entries)
        shared = [e for e in reduced.entries if any(e is o for o in corpus.entries)]
        assert shared == reduced.entries

        def from_scratch(owner, entry):
            rarity = sum(1.0 / owner.feature_counts[f] for f in entry.features)
            return (1.0 + rarity) / (1.0 + entry.chosen)

        for _ in range(2):
            for entry in shared:
                assert corpus.energy(entry) == from_scratch(corpus, entry)
                assert reduced.energy(entry) == from_scratch(reduced, entry)
        assert any(
            corpus.energy(entry) != reduced.energy(entry) for entry in shared
        )

    def test_an_entry_parses_its_spec_once(self):
        corpus = _grown_corpus(3)
        entry = corpus.entries[0]
        assert entry.scenario() is entry.scenario()
        assert entry.scenario() == ScenarioSpec.from_dict(entry.spec)
        assert "_scenario" not in entry.to_dict()

    def test_choose_is_deterministic_in_rng(self):
        picks_a = [e.key for e in _choose_many(_grown_corpus(), 11)]
        picks_b = [e.key for e in _choose_many(_grown_corpus(), 11)]
        assert picks_a == picks_b

    def test_minimize_preserves_features_and_failures(self):
        corpus = _grown_corpus()
        corpus.entries[2].ok = False  # pretend one entry is a reproducer
        reduced = corpus.minimize()
        assert set(reduced.feature_counts) == set(corpus.feature_counts)
        assert len(reduced.entries) <= len(corpus.entries)
        assert any(not entry.ok for entry in reduced.entries)

    def test_json_round_trip_is_byte_stable(self, tmp_path):
        corpus = _grown_corpus()
        path_a = tmp_path / "a.json"
        path_b = tmp_path / "b.json"
        corpus.save(str(path_a))
        Corpus.load(str(path_a)).save(str(path_b))
        assert path_a.read_bytes() == path_b.read_bytes()

    def test_stats_shape(self):
        stats = _grown_corpus().stats()
        assert set(stats) == {"entries", "features", "failing", "by_protocol"}
        assert stats["entries"] == sum(stats["by_protocol"].values())


def _choose_many(corpus, count):
    rng = Random("choose")
    return [corpus.choose(rng) for _ in range(count)]


# ---------------------------------------------------------------------------
# Mutators
# ---------------------------------------------------------------------------


class TestMutators:
    def test_mutants_validate_and_drop_latency_claims(self):
        corpus = _grown_corpus()
        rng = Random("mutants")
        produced = 0
        for entry in corpus.entries:
            base = ScenarioSpec.from_dict(entry.spec)
            mutant = mutate(base, rng, corpus, name="m")
            if mutant is None:
                continue
            produced += 1
            spec, op_names = mutant
            spec.validate()  # budget + structure, the final arbiter
            assert spec.expect_fast_path is False
            assert spec.liveness_deadline is None
            assert spec.timeout >= 3000.0
            assert all(
                name in dict(MUTATORS) for name in op_names.split("+")
            )
        assert produced >= len(corpus.entries) // 2

    def test_matched_pairs_stay_matched(self):
        """Dropping elements never strands a closer: every rule that
        turns on turns off, every partition heals."""
        corpus = _grown_corpus()
        rng = Random("pairs")
        for entry in corpus.entries:
            base = ScenarioSpec.from_dict(entry.spec)
            for _ in range(6):
                mutant = mutate(base, rng, corpus, name="m")
                if mutant is None:
                    continue
                spec, _ = mutant
                on = [e for e in spec.faults if isinstance(e, DelayRuleOn)]
                off = [e for e in spec.faults if isinstance(e, DelayRuleOff)]
                assert {rule.name for rule in on} == {rule.name for rule in off}
                starts = [e for e in spec.faults if isinstance(e, PartitionStart)]
                heals = [e for e in spec.faults if isinstance(e, PartitionHeal)]
                assert len(starts) == len(heals)
                crash_pids = {e.pid for e in spec.faults if isinstance(e, Crash)}
                recover_pids = {
                    e.pid for e in spec.faults if isinstance(e, Recover)
                }
                assert recover_pids <= crash_pids

    def test_fab_crash_budget_is_t(self):
        """FaB can only ever decide with n - t acceptances, so mutants
        must not permanently down more than t replicas."""
        from repro.fuzz.mutators import op_add_crash

        spec = None
        for seed in range(200):
            candidate = generate_scenario(seed)
            if candidate.protocol == "fab" and len(candidate.faulty_pids) >= candidate.t:
                spec = candidate
                break
        assert spec is not None, "no saturated fab spec in seed range"
        assert op_add_crash(spec, Random(1), None) is None

    def test_stasher_payload_types_match_protocol(self):
        rng = Random("stash")
        from repro.fuzz.mutators import op_add_stasher

        for seed in range(6):
            spec = generate_scenario(seed)
            mutant = op_add_stasher(spec, rng, None)
            assert mutant is not None
            stashers = [
                e for e in mutant.faults
                if isinstance(e, DelayRuleOn) and e.payload_types
            ]
            assert stashers
            for rule in stashers:
                for payload in rule.payload_types:
                    assert payload in PAYLOAD_TYPES[spec.protocol]

    def test_splice_requires_same_shape_donor(self):
        from repro.fuzz.mutators import op_splice

        corpus = Corpus()
        spec = generate_scenario(0)
        other = None
        for seed in range(1, 100):
            candidate = generate_scenario(seed)
            shape = (candidate.protocol, candidate.n, candidate.f, candidate.t)
            if shape != (spec.protocol, spec.n, spec.f, spec.t):
                other = candidate
                break
        result = run_scenario(other)
        _consider(corpus, other, result.coverage, "seed:x", result.ok)
        assert op_splice(spec, Random(2), corpus) is None


# ---------------------------------------------------------------------------
# Campaigns
# ---------------------------------------------------------------------------


class TestCampaign:
    def test_same_inputs_identical_digest(self):
        a = run_campaign(CampaignConfig(budget=48))
        b = run_campaign(CampaignConfig(budget=48))
        assert a.digest == b.digest
        assert a.to_dict() == b.to_dict()

    @pytest.mark.parametrize(
        "seed, digest",
        [
            (1, "6c564f190b82a8a5f97a29bd0abd9dce0290eb7412f248f76ac806ded0fd9c78"),
            (2, "4a2983ca137583d56742f1e5a51d5e6032d6d4e48d823d987c50d8c46183a272"),
        ],
    )
    def test_report_digest_is_exactly_this(self, seed, digest):
        """The corpus bookkeeping (key set, cached rarity sums, specs
        parsed once) is pure bookkeeping: same picks, same admissions,
        same report — pinned to what the campaign produced before any of
        it was cached."""
        report = run_campaign(CampaignConfig(budget=128, start_seed=seed))
        assert report.trajectory[-1]["mutants"] > 40  # the corpus was used
        assert report.digest == digest

    def test_shards_is_accepted_and_ignored(self):
        # benchmarks/e2e/workloads.py still passes ``shards=1``.
        one = run_campaign(CampaignConfig(budget=48, shards=1))
        two = run_campaign(CampaignConfig(budget=48, shards=2))
        assert one.digest == two.digest

    def test_guided_beats_blind_at_equal_budget(self):
        """THE acceptance claim: strictly more unique signatures."""
        guided = run_campaign(CampaignConfig(budget=256, shrink=False))
        blind = run_blind(256)
        assert guided.executed == blind.executed == 256
        assert guided.unique_signatures > blind.unique_signatures

    def test_blind_default_mix_passes(self):
        """The acceptance smoke: a batch of generator seeds across FBFT
        and the baselines, every oracle green."""
        report = run_blind(12)
        assert report.ok
        assert report.executed == 12

    @pytest.mark.parametrize("start", [0, 5, 10, 15])
    def test_blind_runs_generator_seeds_in_order(self, start):
        """Blind mode is the plain seed sweep E14's chunks rely on:
        ``generate_scenario(start) … generate_scenario(start + n - 1)``."""
        ran = []

        def recording_run(spec):
            ran.append(spec.to_dict())
            return run_scenario(spec)

        report = run_blind(5, start_seed=start, run=recording_run)
        assert report.executed == 5
        assert ran == [generate_scenario(s).to_dict() for s in range(start, start + 5)]

    def test_blind_deterministic_across_runs(self):
        assert run_blind(6).digest == run_blind(6).digest

    def test_blind_generous_max_seconds_exhausts_budget(self):
        report = run_campaign(
            CampaignConfig(budget=5, mode="blind", max_seconds=1e9),
            clock=lambda: 0.0,
        )
        assert report.stopped_by == "budget"
        assert report.executed == 5

    def test_blind_failure_recorded_per_seed(self):
        """Substitute the known-unsafe configuration (relaxed fast quorum
        + equivocating leader + stalled acks) for every generated fbft
        run: each seed is recorded as its own unshrunk failure."""
        bad = get_scenario("equivocating-leader").with_(
            faults=(
                DelayRuleOn(at=0.0, name="stall", src=(1, 2), dst=(3,),
                            payload_types=("Ack",), extra_delay=5.0),
            ),
            protocol_options={"fast_quorum_delta": 1},
        )
        report = run_blind(
            6, protocols=("fbft",),
            run=lambda spec: run_scenario(bad.with_(name=spec.name)),
        )
        assert [f.origin for f in report.failures] == [f"seed:{s}" for s in range(6)]
        for failure in report.failures:
            assert "agreement" in "; ".join(failure.failures)
            assert failure.shrunk == failure.spec

    def test_trajectory_is_monotone_and_complete(self):
        report = run_campaign(CampaignConfig(budget=48, round_size=8))
        assert len(report.trajectory) == 6
        uniques = [row["unique_signatures"] for row in report.trajectory]
        assert uniques == sorted(uniques)
        assert report.trajectory[-1]["executed"] == 48
        assert report.stopped_by == "budget"

    def test_max_seconds_stops_at_round_boundary(self):
        ticks = iter(range(100))
        report = run_campaign(
            CampaignConfig(budget=800, round_size=8, max_seconds=3.0),
            clock=lambda: float(next(ticks)),
        )
        assert report.stopped_by == "max-seconds"
        assert 0 < report.executed < 800
        assert report.executed % 8 == 0
        assert report.elapsed_seconds is not None

    def test_failures_are_shrunk_with_injected_runner(self):
        from repro.scenarios.invariants import InvariantVerdict

        def failing_run(spec):
            result = run_scenario(spec)
            if spec.protocol == "paxos":
                result.verdicts = (
                    InvariantVerdict(
                        name="synthetic", passed=False, detail="injected"
                    ),
                )
            return result

        report = run_campaign(
            CampaignConfig(budget=12), run=failing_run
        )
        assert not report.ok
        for failure in report.failures:
            assert failure.failures
            reproducer = ScenarioSpec.from_dict(failure.shrunk)
            assert reproducer.protocol == "paxos"
            assert len(reproducer.faults) <= len(
                ScenarioSpec.from_dict(failure.spec).faults
            )

    def test_corpus_grows_and_feeds_mutation(self):
        corpus = Corpus()
        report = run_campaign(
            CampaignConfig(budget=96, warmup=16, fresh_fraction=0.1),
            corpus=corpus,
        )
        assert corpus.entries
        assert report.trajectory[-1]["mutants"] > 0
        origins = {entry.origin.split(":")[0] for entry in corpus.entries}
        assert "seed" in origins


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


class TestCli:
    def test_campaign_writes_corpus_and_report(self, tmp_path, capsys):
        corpus_path = tmp_path / "corpus.json"
        report_path = tmp_path / "report.json"
        code = fuzz_main([
            "campaign", "--budget", "16", "--quiet",
            "--corpus-out", str(corpus_path),
            "--json", str(report_path),
        ])
        assert code == 0
        report = json.loads(report_path.read_text())
        assert report["executed"] == 16
        assert report["digest"]
        assert Corpus.load(str(corpus_path)).entries

    def test_replay_by_key_prefix(self, tmp_path, capsys):
        corpus_path = tmp_path / "corpus.json"
        _grown_corpus(4).save(str(corpus_path))
        key = Corpus.load(str(corpus_path)).entries[0].key
        code = fuzz_main(["replay", key[:12], "--corpus", str(corpus_path)])
        assert code == 0
        assert "scenario" in capsys.readouterr().out

    def test_replay_spec_file(self, tmp_path, capsys):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(generate_scenario(1).to_dict()))
        assert fuzz_main(["replay", "--spec", str(spec_path)]) == 0

    def test_replay_spec_with_bad_delay_bounds_is_a_usage_error(
        self, tmp_path, capsys
    ):
        data = generate_scenario(1).to_dict()
        data["delay"] = dict(
            data["delay"], kind="random", min_delay=2.0, max_delay=1.0
        )
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(data))
        assert fuzz_main(["replay", "--spec", str(spec_path)]) == 2
        assert capsys.readouterr().err.startswith("error: random delay needs")

    def test_replay_ambiguous_prefix_fails(self, tmp_path, capsys):
        corpus_path = tmp_path / "corpus.json"
        _grown_corpus(6).save(str(corpus_path))
        assert fuzz_main(["replay", "", "--corpus", str(corpus_path)]) == 2

    def test_corpus_stats_and_minimize(self, tmp_path, capsys):
        corpus_path = tmp_path / "corpus.json"
        out_path = tmp_path / "mini.json"
        _grown_corpus(6).save(str(corpus_path))
        assert fuzz_main(["corpus", "stats", "--corpus", str(corpus_path)]) == 0
        stats = json.loads(capsys.readouterr().out)
        assert stats["entries"] > 0
        assert fuzz_main([
            "corpus", "minimize", "--corpus", str(corpus_path),
            "--out", str(out_path),
        ]) == 0
        reduced = Corpus.load(str(out_path))
        original = Corpus.load(str(corpus_path))
        assert set(reduced.feature_counts) == set(original.feature_counts)

    def test_campaign_failure_exit_code(self, tmp_path):
        # An impossible protocol name is a usage error, not a crash.
        with pytest.raises(SystemExit):
            fuzz_main(["campaign", "--budget", "-1", "--bogus"])

    def test_campaign_telemetry_flags(self, tmp_path, capsys):
        """--metrics-out/--trace-out accumulate across every executed
        schedule (via the in-process serial path) and write on exit."""
        metrics_path = tmp_path / "metrics.json"
        trace_path = tmp_path / "trace.json"
        code = fuzz_main([
            "campaign", "--budget", "8", "--quiet",
            "--metrics-out", str(metrics_path),
            "--trace-out", str(trace_path),
        ])
        assert code == 0
        metrics = json.loads(metrics_path.read_text())
        assert any(k.startswith("net.sent.") for k in metrics["counters"])
        trace = json.loads(trace_path.read_text())
        assert trace["emitted"] > 0 and trace["events"]

    def test_replay_record_out_dumps_flight_record(self, tmp_path, capsys):
        spec_path = tmp_path / "spec.json"
        spec = generate_scenario(1)
        spec_path.write_text(json.dumps(spec.to_dict()))
        record_dir = tmp_path / "dumps"
        assert fuzz_main([
            "replay", "--spec", str(spec_path),
            "--record-out", str(record_dir),
        ]) == 0
        dump = record_dir / f"flight-{spec.name}.jsonl"
        header = json.loads(dump.read_text().splitlines()[0])
        assert header["flight"] == 1
        assert header["meta"]["scenario"] == spec.name

    @pytest.mark.parametrize(
        "origin, stem",
        [
            ("seed-0001", "seed-0001"),
            ("mutant:268/splice+add-partition", "mutant-268-splice-add-partition"),
        ],
    )
    def test_failures_dump_original_and_shrunk(self, tmp_path, origin, stem):
        """Dump-on-violation: a failing seed's original and shrunk
        reproducers are replayed under flight recorders and dumped next
        to the --json report (no --record-out needed).  Origins become
        file names with anything outside [A-Za-z0-9._-] replaced."""
        from repro.fuzz import cli as fuzz_cli

        spec_dict = generate_scenario(1).to_dict()
        failure = SimpleNamespace(origin=origin, spec=spec_dict, shrunk=spec_dict)
        paths = fuzz_cli._dump_failures([failure], str(tmp_path / "out"))
        assert [Path(p).name for p in paths] == [
            f"flight-{stem}-original.jsonl",
            f"flight-{stem}-shrunk.jsonl",
        ]
        for path in paths:
            header = json.loads(Path(path).read_text().splitlines()[0])
            assert header["flight"] == 1
