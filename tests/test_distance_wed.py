"""WED dynamic programming: reference recursion, properties, instances."""

import math
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.distance.costs import LevenshteinCost
from repro.distance.wed import wed, wed_row_init, wed_step_min, wed_within

lev = LevenshteinCost()


def reference_wed(data, query, costs):
    """Direct implementation of the §2.2.1 recursion (exponential; tiny
    inputs only)."""

    @lru_cache(maxsize=None)
    def rec(i, j):  # wed(data[:i], query[:j])
        if i == 0:
            return sum(costs.ins(q) for q in query[:j])
        if j == 0:
            return sum(costs.delete(p) for p in data[:i])
        return min(
            rec(i - 1, j - 1) + costs.sub(data[i - 1], query[j - 1]),
            rec(i - 1, j) + costs.delete(data[i - 1]),
            rec(i, j - 1) + costs.ins(query[j - 1]),
        )

    return rec(len(data), len(query))


symbols = st.integers(min_value=0, max_value=5)
strings = st.lists(symbols, min_size=0, max_size=8)


class TestAgainstReference:
    @given(strings, strings)
    @settings(max_examples=120, deadline=None)
    def test_levenshtein_matches_recursion(self, a, b):
        assert wed(a, b, lev) == reference_wed(tuple(a), tuple(b), lev)

    def test_known_values(self):
        # Classic examples (kitten/sitting analog on ints).
        assert wed([1, 2, 3], [1, 2, 3], lev) == 0
        assert wed([1, 2, 3], [1, 9, 3], lev) == 1
        assert wed([1, 2], [1, 2, 3, 4], lev) == 2
        assert wed([], [1, 2], lev) == 2
        assert wed([1, 2], [], lev) == 2
        assert wed([], [], lev) == 0


class TestProposition1:
    """Nonnegativity, pseudo-positive-definiteness, symmetry."""

    @given(strings, strings)
    @settings(max_examples=80, deadline=None)
    def test_nonnegative(self, a, b):
        assert wed(a, b, lev) >= 0

    @given(strings)
    @settings(max_examples=50, deadline=None)
    def test_self_distance_zero(self, a):
        assert wed(a, a, lev) == 0

    @given(strings, strings)
    @settings(max_examples=80, deadline=None)
    def test_symmetry(self, a, b):
        assert wed(a, b, lev) == wed(b, a, lev)


class TestWeightedInstance:
    def test_surs_example_1(self, small_graph, surs_cost):
        """Example 1 of the paper: SURS totals the unshared edge weights."""
        w = [e.weight for e in small_graph.edges]
        # P = b e f g, Q = a b c d g over edge ids 0..6 standing for a..g.
        a, b, c, d, e, f, g = range(7)
        p = [b, e, f, g]
        q = [a, b, c, d, g]
        got = wed(p, q, surs_cost)
        want = w[a] + w[c] + w[d] + w[e] + w[f]
        assert got == pytest.approx(want)

    def test_surs_identical_paths(self, surs_cost):
        assert wed([0, 1, 2], [0, 1, 2], surs_cost) == 0.0

    def test_surs_disjoint_paths_cost_everything(self, small_graph, surs_cost):
        w = [e.weight for e in small_graph.edges]
        assert wed([0, 1], [2, 3], surs_cost) == pytest.approx(w[0] + w[1] + w[2] + w[3])


class TestStepHelpers:
    def test_row_init(self):
        row = wed_row_init(lev, [1, 2, 3])
        assert row == [0.0, 1.0, 2.0, 3.0]

    def test_step_extends_correctly(self):
        query = [1, 2]
        row = wed_row_init(lev, query)
        row = wed_step_min(lev, query, 1, row)[0]
        assert row == [1.0, 0.0, 1.0]  # wed("1", ""), wed("1","1"), wed("1","12")

    def test_precomputed_rows_match(self):
        query = [1, 2, 3]
        row = wed_row_init(lev, query)
        default = wed_step_min(lev, query, 2, row)
        explicit = wed_step_min(
            lev,
            query,
            2,
            row,
            sub_row=lev.sub_row(2, query),
            ins_row=[1.0, 1.0, 1.0],
        )
        assert default == explicit


class TestWedWithin:
    @given(strings, strings, st.floats(min_value=0.5, max_value=8.5))
    @settings(max_examples=100, deadline=None)
    def test_consistent_with_wed(self, a, b, tau):
        exact = wed(a, b, lev)
        thresholded = wed_within(a, b, lev, tau)
        if exact < tau:
            assert thresholded == exact
        else:
            assert math.isinf(thresholded)

    def test_early_exit_does_not_lose_matches(self):
        assert wed_within([1, 2, 3], [1, 2, 3], lev, 0.5) == 0.0
        assert math.isinf(wed_within([1, 2, 3], [4, 5, 6], lev, 2.0))


class TestWedStepMin:
    """wed_step_min returns the row plus its minimum in one pass."""

    @given(strings, strings)
    @settings(max_examples=100, deadline=None)
    def test_min_matches_scan(self, data, query):
        row = wed_row_init(lev, query)
        for p in data:
            row, row_min = wed_step_min(lev, query, p, row)
            assert row_min == min(row)
