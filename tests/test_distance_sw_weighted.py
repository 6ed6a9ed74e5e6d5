"""Smith–Waterman and verification under *weighted* (non-unit) costs.

The Lev-based suites exercise the combinatorics; these tests make sure
nothing silently assumes unit costs (real WED instances are continuous).
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.results import MatchSet
from repro.core.verification import Verifier
from repro.distance.costs import CostModel
from repro.distance.smith_waterman import all_matches, best_match
from repro.distance.wed import wed
from tests.conftest import brute_all


class RampCost(CostModel):
    """sub(a,b) = 0.3|a-b|, ins = del = 0.9 — asymmetric op costs,
    non-integer values, small alphabet."""

    representation = "vertex"
    name = "ramp"

    def sub(self, a: int, b: int) -> float:
        return 0.3 * abs(a - b)

    def ins(self, a: int) -> float:
        return 0.9

    def neighbors(self, q):
        return [b for b in range(6) if self.sub(q, b) <= 0.3]

    def filter_cost(self, q: int) -> float:
        outside = [self.sub(q, b) for b in range(6) if b not in self.neighbors(q)]
        return min([self.ins(q)] + outside)


ramp = RampCost()
strings = st.lists(st.integers(0, 5), min_size=1, max_size=9)


class TestWeightedSW:
    @given(strings, strings, st.floats(0.3, 3.0))
    @settings(max_examples=120, deadline=None)
    def test_all_matches_weighted(self, data, query, tau):
        got = sorted((s, t) for s, t, _ in all_matches(data, query, ramp, tau))
        assert got == [(s, t) for s, t, _ in brute_all(data, query, ramp, tau)]

    @given(strings, strings)
    @settings(max_examples=80, deadline=None)
    def test_best_match_weighted(self, data, query):
        s, t, d = best_match(data, query, ramp)
        best = min(
            wed(data[a : b + 1], query, ramp)
            for a in range(len(data))
            for b in range(a - 1, len(data))  # b = a-1: empty substring
        )
        assert d == pytest.approx(best)


class TestWeightedVerification:
    @given(strings, strings, st.floats(0.3, 2.5))
    @settings(max_examples=120, deadline=None)
    def test_verifier_matches_oracle(self, data, query, tau):
        datasets = [data]
        candidates = [
            (0, j, iq)
            for j, sym in enumerate(data)
            for iq, q in enumerate(query)
            if sym in ramp.neighbors(q)
        ]
        # Torch-style full anchor set covers every tau-subsequence choice.
        verifier = Verifier(lambda tid: datasets[tid], query, ramp, tau)
        ms = MatchSet()
        verifier.verify_all(candidates, ms)
        got = {(m.start, m.end) for m in ms}
        want = {(s, t) for s, t, _ in brute_all(data, query, ramp, tau)}
        # Razor's-edge exclusion: with non-representable costs (0.3/0.9) a
        # subtrajectory whose true WED *equals* tau sits on the strict-<
        # boundary, where the verifier's bidirectional sum (left + anchor +
        # right) and the oracle's monolithic DP legitimately round one ulp
        # apart.  Membership there is floating-point-implementation-defined;
        # the dyadic-cost property tests (test_paper_properties) pin exact
        # behavior where every sum is representable.
        boundary = {
            (s, t)
            for s in range(len(data))
            for t in range(s, len(data))
            if abs(wed(data[s : t + 1], query, ramp) - tau) < 1e-9
        }
        got -= boundary
        want -= boundary
        # The anchor set only covers matches sharing a neighborhood symbol;
        # by Theorem 1 that is all of them whenever c(Q') >= tau for the
        # full query (Torch uses every position).
        total_c = sum(ramp.filter_cost(q) for q in query)
        if total_c >= tau:
            assert got == want
        else:
            assert got <= want

    @given(strings, strings)
    @settings(max_examples=60, deadline=None)
    def test_distances_exact_weighted(self, data, query):
        """Reported distances are exact *when Lemma 1 applies* — i.e. when
        a tau-subsequence exists (c(Q) >= tau).  Below that threshold the
        anchor decompositions are only upper bounds (the engine never
        enters this regime: it falls back to a full scan instead)."""
        datasets = [data]
        tau = 2.0
        candidates = [
            (0, j, iq)
            for j, sym in enumerate(data)
            for iq, q in enumerate(query)
            if sym in ramp.neighbors(q)
        ]
        verifier = Verifier(lambda tid: datasets[tid], query, ramp, tau)
        ms = MatchSet()
        verifier.verify_all(candidates, ms)
        feasible = sum(ramp.filter_cost(q) for q in query) >= tau
        for m in ms:
            exact = wed(data[m.start : m.end + 1], query, ramp)
            if feasible:
                assert m.distance == pytest.approx(exact)
            else:
                assert m.distance >= exact - 1e-9  # still a sound upper bound
