"""Properties of the quorum arithmetic (Section 3.3).

Where the domain is small the properties are checked on every point of
it: every f <= 50, every (f, t) with 1 <= t <= f <= 50 (1,275 pairs) and
every (f, extra) with extra <= 20.  Only the two intersection properties,
whose domains have millions of points, are sampled by hypothesis.
"""

from hypothesis import given
from hypothesis import strategies as st

from repro.core.quorums import (
    all_qi_hold,
    commit_quorum,
    generalized_fast_vote_overlap,
    guaranteed_correct_in_intersection,
    intersection_size,
    min_processes_fab,
    min_processes_fast_bft,
    qi1_holds,
    qi2_holds,
)

F_VALUES = range(1, 51)
FT_PAIRS = [(f, t) for f in F_VALUES for t in range(1, f + 1)]


class TestBounds:
    def test_ours_strictly_cheaper_than_fab(self):
        for f, t in FT_PAIRS:
            assert min_processes_fast_bft(f, t) == min_processes_fab(f, t) - 2, (f, t)

    def test_bound_monotone_in_t(self):
        for f, t in FT_PAIRS:
            if t < f:
                assert min_processes_fast_bft(f, t) <= min_processes_fast_bft(
                    f, t + 1
                ), (f, t)

    def test_vanilla_bound_is_5f_minus_1(self):
        for f in F_VALUES:
            assert min_processes_fast_bft(f, f) == max(5 * f - 1, 3 * f + 1), f

    def test_bound_never_below_classic(self):
        for f, t in FT_PAIRS:
            assert min_processes_fast_bft(f, t) >= 3 * f + 1, (f, t)


class TestIntersections:
    @given(
        st.integers(min_value=1, max_value=200),
        st.integers(min_value=0, max_value=200),
        st.integers(min_value=0, max_value=200),
    )
    def test_intersection_size_is_tight(self, n, q1, q2):
        """The pigeonhole bound is achievable, so it must be in [0, min]."""
        size = intersection_size(n, min(q1, n), min(q2, n))
        assert 0 <= size <= min(q1, q2, n)

    @given(
        st.integers(min_value=1, max_value=100),
        st.integers(min_value=0, max_value=100),
        st.integers(min_value=0, max_value=100),
        st.integers(min_value=0, max_value=100),
    )
    def test_correct_overlap_never_exceeds_overlap(self, n, q1, q2, byz):
        overlap = intersection_size(n, min(q1, n), min(q2, n))
        correct = guaranteed_correct_in_intersection(
            n, min(q1, n), min(q2, n), byz
        )
        assert 0 <= correct <= overlap


class TestQIBoundaries:
    def test_qi2_tight_at_5f_minus_1(self):
        for f in F_VALUES:
            assert qi2_holds(5 * f - 1, f), f
            assert not qi2_holds(5 * f - 2, f), f

    def test_qi1_tight_at_3f_plus_1(self):
        for f in F_VALUES:
            assert qi1_holds(3 * f + 1, f), f
            assert not qi1_holds(3 * f, f), f

    def test_qi_properties_monotone_in_n(self):
        """Adding processes never breaks a quorum-intersection property."""
        for f in F_VALUES:
            for extra in range(21):
                assert all_qi_hold(5 * f - 1 + extra, f), (f, extra)


class TestGeneralizedThresholds:
    def test_selection_threshold_sound_at_bound(self):
        """At n = max(3f+2t-1, 3f+1) a fast quorum forces >= f + t votes
        into any (n - f)-vote view-change set sans equivocator."""
        for f, t in FT_PAIRS:
            n = min_processes_fast_bft(f, t)
            assert generalized_fast_vote_overlap(n, f, t) >= f + t, (f, t)

    def test_selection_threshold_unsound_below_bound(self):
        for f, t in FT_PAIRS:
            if t < 2:
                continue  # below the bound means below 3f + 1: different regime
            n = 3 * f + 2 * t - 2
            assert generalized_fast_vote_overlap(n, f, t) < f + t, (f, t)

    def test_commit_quorums_intersect_correctly(self):
        for f, t in FT_PAIRS:
            n = min_processes_fast_bft(f, t)
            cq = commit_quorum(n, f)
            # Two commit quorums share a correct process.
            assert guaranteed_correct_in_intersection(n, cq, cq, f) >= 1, (f, t)
            # A commit quorum and a fast quorum share a correct process.
            assert guaranteed_correct_in_intersection(n, cq, n - t, f) >= 1, (f, t)

    def test_at_most_one_value_reaches_threshold(self):
        """2 * threshold exceeds the usable vote count, so two values can
        never both qualify during equivocation handling."""
        for f, t in FT_PAIRS:
            n = min_processes_fast_bft(f, t)
            threshold = 2 * f if t == f else f + t
            usable_votes = n - f  # votes excluding the equivocator
            assert 2 * threshold > usable_votes, (f, t)
