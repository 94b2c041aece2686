"""Property-based tests for the selection algorithm.

The central safety invariant (Lemmata 3.1-3.5): whenever a value could
have been decided in view 1 — i.e. some value has a fast quorum of
correct adopters among the votes — the selection algorithm must either
select exactly that value or demand more votes.  It must never declare
"any value safe" and never select a different value.
"""

import sys
from pathlib import Path

from hypothesis import assume, given, settings
from hypothesis import strategies as st

sys.path.insert(0, str(Path(__file__).parent.parent))

from helpers import examples, make_config, make_registry, make_vote_set

from repro.core.selection import (
    AnyValueSafe,
    NeedMoreVotes,
    Selected,
    run_selection,
    selection_admits,
)

CONFIG = make_config(n=9, f=2)
REGISTRY = make_registry(CONFIG)

# Vote assignments for view-change at view 2 over view-1 proposals:
# each of the 9 voters votes "x", "y", or nil.
vote_values = st.sampled_from(["x", "y", None])
assignments = st.dictionaries(
    keys=st.integers(min_value=0, max_value=8),
    values=vote_values,
    min_size=CONFIG.vote_quorum,
    max_size=9,
)


def build_votes(assignment):
    return make_vote_set(REGISTRY, CONFIG, 2, assignment)


class TestOutcomeShape:
    @given(assignments)
    @settings(max_examples=examples(60), deadline=None)
    def test_always_terminates_with_known_outcome(self, assignment):
        outcome = run_selection(build_votes(assignment), CONFIG)
        assert isinstance(outcome, (Selected, AnyValueSafe, NeedMoreVotes))

    @given(assignments)
    @settings(max_examples=examples(60), deadline=None)
    def test_deterministic(self, assignment):
        votes = build_votes(assignment)
        assert str(run_selection(votes, CONFIG)) == str(
            run_selection(votes, CONFIG)
        )

    @given(assignments)
    @settings(max_examples=examples(60), deadline=None)
    def test_selected_value_was_voted(self, assignment):
        votes = build_votes(assignment)
        outcome = run_selection(votes, CONFIG)
        if isinstance(outcome, Selected):
            voted = {
                sv.vote.value for sv in votes.values() if sv.vote is not None
            }
            assert outcome.value in voted


class TestSafetyInvariant:
    @given(
        st.data(),
        st.integers(min_value=7, max_value=8),
        st.sampled_from(["x", "y"]),
    )
    @settings(max_examples=examples(100), deadline=None)
    def test_potentially_decided_value_never_lost(self, data, quorum, decided):
        """Model: leader(1) equivocated (it is the only Byzantine voter),
        all other voters are honest.  If v was decided in view 1, a fast
        quorum of n - f ackers existed, so at least n - f - 1 honest
        non-leader voters report v.  Selection must then pick exactly v —
        never another value, never "any value safe".

        Vote sets are built to satisfy the precondition by construction
        (at least ``quorum >= n - f - 1 = 6`` non-leader votes for the
        decided value), avoiding assume()-based filtering."""
        voters = data.draw(
            st.permutations(list(range(1, 9)))
        )
        assignment = {pid: decided for pid in voters[:quorum]}
        for pid in voters[quorum:]:
            assignment[pid] = data.draw(vote_values)
        if data.draw(st.booleans()):
            assignment[0] = data.draw(vote_values)  # the leader's own lie
        votes = build_votes(assignment)
        counts = {}
        for voter, sv in votes.items():
            if sv.vote is not None and voter != CONFIG.leader_of(1):
                counts[sv.vote.value] = counts.get(sv.vote.value, 0) + 1
        possibly_decided = {
            v for v, c in counts.items() if c >= CONFIG.n - CONFIG.f - 1
        }
        assume(possibly_decided)
        assert len(possibly_decided) == 1  # two fast quorums cannot coexist
        outcome = run_selection(votes, CONFIG)
        # Waiting for more votes is always acceptable (the leader keeps
        # collecting); declaring every value safe, or selecting a rival
        # value, would lose the decided value.
        assert not isinstance(outcome, AnyValueSafe)
        if isinstance(outcome, Selected):
            assert outcome.value in possibly_decided

    @given(assignments, st.sampled_from(["x", "y", "z"]))
    @settings(max_examples=examples(100), deadline=None)
    def test_admits_agrees_with_selection(self, assignment, candidate):
        votes = build_votes(assignment)
        outcome = run_selection(votes, CONFIG)
        admitted = selection_admits(votes, candidate, CONFIG)
        if isinstance(outcome, Selected):
            assert admitted == (candidate == outcome.value)
        elif isinstance(outcome, AnyValueSafe):
            assert admitted
        else:
            assert not admitted


class TestMonotonicity:
    @given(assignments)
    @settings(max_examples=examples(60), deadline=None)
    def test_excluded_set_only_contains_leaders(self, assignment):
        votes = build_votes(assignment)
        outcome = run_selection(votes, CONFIG)
        for pid in outcome.excluded:
            # Only proven-equivocator leaders are ever excluded; with all
            # votes at view 1, that is leader(1) = 0.
            assert pid == CONFIG.leader_of(1)
