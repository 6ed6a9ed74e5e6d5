"""Smith–Waterman: best substring and the all-matches oracle."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.distance.costs import LevenshteinCost
from repro.distance.smith_waterman import all_matches, best_match
from repro.distance.wed import wed
from tests.conftest import brute_all

lev = LevenshteinCost()

symbols = st.integers(min_value=0, max_value=4)
data_strings = st.lists(symbols, min_size=1, max_size=12)
query_strings = st.lists(symbols, min_size=1, max_size=5)


def brute_best(data, query):
    best = (0, -1, wed([], query, lev))  # empty substring
    for s in range(len(data)):
        for t in range(s, len(data)):
            d = wed(data[s : t + 1], query, lev)
            if d < best[2]:
                best = (s, t, d)
    return best


class TestBestMatch:
    def test_exact_substring(self):
        s, t, d = best_match([9, 1, 2, 3, 9], [1, 2, 3], lev)
        assert (s, t, d) == (1, 3, 0.0)

    def test_paper_example_2(self):
        """P=ABCDE, Q=BFD: wed(P[1..3], Q) == 1 < 2."""
        A, B, C, D, E, F = range(6)
        s, t, d = best_match([A, B, C, D, E], [B, F, D], lev)
        assert (s, t) == (1, 3)
        assert d == 1.0

    @given(data_strings, query_strings)
    @settings(max_examples=100, deadline=None)
    def test_value_matches_brute_force(self, data, query):
        _, _, got = best_match(data, query, lev)
        _, _, want = brute_best(data, query)
        assert got == want

    @given(data_strings, query_strings)
    @settings(max_examples=100, deadline=None)
    def test_reported_span_achieves_value(self, data, query):
        s, t, d = best_match(data, query, lev)
        assert wed(data[s : t + 1], query, lev) == d

    def test_whole_query_deleted(self):
        # Query totally dissimilar and longer than data: inserting
        # everything may be optimal, yielding an empty match.
        s, t, d = best_match([0], [1, 1, 1], lev)
        assert d <= 3.0


class TestAllMatches:
    def test_non_positive_tau(self):
        assert all_matches([1, 2, 3], [1], lev, 0.0) == []
        assert all_matches([1, 2, 3], [1], lev, -1.0) == []

    def test_exact_hits(self):
        got = all_matches([1, 2, 1, 2], [1, 2], lev, 1.0)
        spans = {(s, t) for s, t, _ in got}
        assert (0, 1) in spans and (2, 3) in spans

    def test_strict_inequality(self):
        # wed == tau must NOT match (Definition 2 uses <).
        got = all_matches([1, 9, 3], [1, 2, 3], lev, 1.0)
        assert got == []
        got = all_matches([1, 9, 3], [1, 2, 3], lev, 1.0 + 1e-9)
        assert any(d == 1.0 for _, _, d in got)

    @given(data_strings, query_strings, st.floats(min_value=0.5, max_value=4.5))
    @settings(max_examples=120, deadline=None)
    def test_matches_brute_force(self, data, query, tau):
        got = sorted(all_matches(data, query, lev, tau))
        want = brute_all(data, query, lev, tau)
        assert got == want

    @given(data_strings, query_strings)
    @settings(max_examples=60, deadline=None)
    def test_distances_are_exact(self, data, query):
        for s, t, d in all_matches(data, query, lev, 3.0):
            assert wed(data[s : t + 1], query, lev) == d

    def test_no_empty_matches(self):
        # Empty subtrajectories are excluded by construction.
        for s, t, _ in all_matches([1, 1], [1], lev, 10.0):
            assert s <= t
