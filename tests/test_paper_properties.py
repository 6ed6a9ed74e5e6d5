"""Property tests for the paper's formal statements.

Each class targets one lemma/theorem/proposition with randomized
instances, complementing the targeted unit tests elsewhere.
"""

import math

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.core.filtering import query_profile
from repro.core.mincand import mincand_greedy
from repro.core.results import MatchSet
from repro.core.verification import Verifier
from repro.distance.costs import CostModel, LevenshteinCost
from repro.distance.smith_waterman import all_matches
from repro.distance.wed import wed

symbols = st.integers(min_value=0, max_value=5)
strings = st.lists(symbols, min_size=1, max_size=8)


class WeightedToyCost(CostModel):
    """A small weighted cost model over symbols 0..5 with eta > 0.

    sub(a, b) = |a - b| * 0.7, ins = del = 1.5, B(q) = {b : sub <= 0.7}
    (i.e. immediate neighbors).  Exercises the non-unit-cost code paths in
    property tests without a road network.
    """

    representation = "vertex"
    name = "toy"

    ETA = 0.7

    def sub(self, a: int, b: int) -> float:
        return 0.0 if a == b else abs(a - b) * 0.7

    def ins(self, a: int) -> float:
        return 1.5

    def neighbors(self, q):
        return [b for b in range(6) if self.sub(q, b) <= self.ETA]

    def filter_cost(self, q: int) -> float:
        candidates = [self.ins(q)]
        candidates += [
            self.sub(q, b) for b in range(6) if b not in self.neighbors(q)
        ]
        return min(candidates)


toy = WeightedToyCost()
lev = LevenshteinCost()


class TestTheorem1Weighted:
    """Subsequence filtering is safe for non-unit costs and eta > 0."""

    @given(data=strings, query=strings, ratio=st.floats(0.1, 0.9))
    @settings(max_examples=200, deadline=None)
    def test_filter_never_prunes_a_match(self, data, query, ratio):
        profile = query_profile(query, toy)
        tau = ratio * sum(e.cost for e in profile)
        assume(tau > 0)
        chosen = mincand_greedy(
            [e for e in profile],
            tau,
        )
        neighborhood = set()
        for e in chosen:
            neighborhood.update(e.neighborhood)
        pruned = not any(s in neighborhood for s in data)
        if pruned:
            # Theorem 1: no substring of data can be within tau of query.
            for s in range(len(data)):
                for t in range(s, len(data)):
                    assert wed(data[s : t + 1], query, toy) >= tau - 1e-9


class TestLemma1:
    """Every match has an anchor candidate — drawn from the chosen
    tau-subsequence's neighborhoods — whose decomposition is exact.

    Lemma 1 presupposes that a tau-subsequence exists (``c(Q) >= tau``);
    below that the engine must (and does) fall back to scanning, so such
    instances are excluded here.
    """

    @given(data=strings, query=strings, tau=st.floats(0.5, 4.0))
    @settings(max_examples=150, deadline=None)
    def test_anchor_decomposition_exists(self, data, query, tau):
        profile = query_profile(query, lev)
        assume(sum(e.cost for e in profile) >= tau)
        chosen = mincand_greedy(profile, tau)
        # Candidates exactly as Algorithm 2 collects them.
        candidates = [
            (j, e.position)
            for j, sym in enumerate(data)
            for e in chosen
            if sym in e.neighborhood
        ]
        for s, t, d in all_matches(data, query, lev, tau):
            found = False
            for j, iq in candidates:
                if not s <= j <= t:
                    continue
                left = wed(data[s:j], query[:iq], lev)
                anchor = lev.sub(data[j], query[iq])
                right = wed(data[j + 1 : t + 1], query[iq + 1 :], lev)
                if math.isclose(left + anchor + right, d, abs_tol=1e-9):
                    found = True
                    break
            assert found, (s, t, d)


class TestEquation11:
    """The prefix-row minimum is a monotone lower bound (early
    termination soundness)."""

    @given(data=strings, query=strings)
    @settings(max_examples=100, deadline=None)
    def test_row_minimum_monotone(self, data, query):
        from repro.distance.wed import wed_row_init, wed_step_min

        row = wed_row_init(lev, query)
        prev_min = min(row)
        for p in data:
            row = wed_step_min(lev, query, p, row)[0]
            cur_min = min(row)
            assert cur_min >= prev_min - 1e-12
            prev_min = cur_min

    @given(data=strings, query=strings)
    @settings(max_examples=100, deadline=None)
    def test_row_minimum_bounds_extensions(self, data, query):
        from repro.distance.wed import wed_row_init, wed_step_min

        row = wed_row_init(lev, query)
        for k, p in enumerate(data):
            row = wed_step_min(lev, query, p, row)[0]
            lb = min(row)
            # Any longer prefix has WED >= lb.
            for t in range(k + 1, len(data)):
                assert wed(data[: t + 1], query, lev) >= lb - 1e-12
            break  # one prefix point suffices per example


class TestStrictThreshold:
    """Definition 2 uses wed < tau, never <=."""

    @given(data=strings, query=strings)
    @settings(max_examples=100, deadline=None)
    def test_boundary_excluded(self, data, query):
        d = wed(data, query, lev)
        assume(d > 0)
        hits = all_matches(data, query, lev, d)
        assert all(dist < d for _, _, dist in hits)


class TestExample2:
    def test_paper_example_2(self):
        """P=ABCDE, Q=BFD, Lev, tau=2: P[1..3] matches with wed 1."""
        A, B, C, D, E, F = range(6)
        hits = all_matches([A, B, C, D, E], [B, F, D], lev, 2.0)
        assert any((s, t) == (1, 3) and d == 1.0 for s, t, d in hits)


class _TableCost(CostModel):
    """A cost model from an explicit random table over symbols 0..5.

    Used to fuzz the DP backends with arbitrary (symmetric, zero-diagonal)
    float costs — the substitution values need not be exactly
    representable, which is precisely what distinguishes a bit-identical
    kernel from a merely close one.
    """

    representation = "vertex"
    name = "table"

    def __init__(self, sub_table, ins_costs, eta):
        self._sub = sub_table
        self._ins = ins_costs
        self._eta = eta

    def sub(self, a: int, b: int) -> float:
        return self._sub[a][b]

    def ins(self, a: int) -> float:
        return self._ins[a]

    def neighbors(self, q):
        return [b for b in range(6) if self._sub[q][b] <= self._eta]

    def filter_cost(self, q: int) -> float:
        outside = [
            self._sub[q][b] for b in range(6) if self._sub[q][b] > self._eta
        ]
        return min([self._ins[q]] + outside)


def _table_costs(unit: float):
    """Strategy for a random valid WED cost model with costs that are
    multiples of ``unit`` (symmetric, sub(a,a)=0, ins=del).

    ``unit=0.25`` is dyadic — every DP sum is exact in float64, so the
    bidirectional decomposition equals the monolithic oracle DP bit for
    bit.  ``unit=0.3`` is *not* representable — sums round differently
    depending on association, which is exactly what distinguishes a
    bit-identical kernel from a merely close one.
    """
    value = st.integers(min_value=1, max_value=40).map(lambda k: k * unit)

    @st.composite
    def build(draw):
        sub = [[0.0] * 6 for _ in range(6)]
        for a in range(6):
            for b in range(a + 1, 6):
                v = draw(value)
                sub[a][b] = sub[b][a] = v
        ins = [draw(value) for _ in range(6)]
        eta = draw(st.sampled_from([0.0, unit, 2 * unit, 4 * unit]))
        return _TableCost(sub, ins, eta)

    return build()


def _verify(costs, data, query, tau):
    """Run the full candidate set through the verifier; returns
    ``{match key: distance}``."""
    datasets = [list(data)]
    candidates = [
        (0, j, iq)
        for j, sym in enumerate(data)
        for iq, q in enumerate(query)
        if costs.sub(q, sym) <= costs._eta
    ]
    verifier = Verifier(lambda tid: datasets[tid], query, costs, tau)
    ms = MatchSet()
    verifier.verify_all(candidates, ms)
    return {(m.trajectory_id, m.start, m.end): m.distance for m in ms}


class TestBackendBitParity:
    """Every verifier configuration is one computation: identical match
    sets with *bit-identical* distances and identical UPR/CMR counters on
    random cost models, queries, and taus — and on exact costs, the
    Smith–Waterman oracle's.

    This is stronger than approximate equality: Definition 3 compares
    ``wed < tau`` strictly, so a one-ulp divergence at the boundary would
    change answers (every DP step is
    :func:`~repro.distance.wed.wed_step_min`, one evaluation order
    everywhere, precisely to rule that out).
    """

    @given(
        costs=_table_costs(0.3),
        data=strings,
        query=strings,
        tau_steps=st.integers(min_value=1, max_value=20),
    )
    @settings(max_examples=120, deadline=None)
    def test_configurations_agree_bit_for_bit(self, costs, data, query, tau_steps):
        """{trie, local} x {early termination on, off} x {verify_all,
        verify_candidate}: every match key and every distance *bit for
        bit* (0.3-multiples are not exactly representable, so any
        reassociation would show) is the same in all eight runs, and
        within one (trie, early termination) setting every
        VerificationStats counter is too — a group of one and a group of
        many are one computation."""
        tau = tau_steps * 0.3
        datasets = [list(data)]
        candidates = [
            (0, j, iq)
            for j, sym in enumerate(data)
            for iq, q in enumerate(query)
            if costs.sub(q, sym) <= costs._eta
        ]

        def run(use_trie, early, batched):
            verifier = Verifier(
                lambda tid: datasets[tid],
                query,
                costs,
                tau,
                use_trie=use_trie,
                early_termination=early,
            )
            ms = MatchSet()
            if batched:
                verifier.verify_all(candidates, ms)
            else:
                # Groups of one (dedupe by hand — verify_all dedupes
                # itself and counts what it dropped).
                for cand in dict.fromkeys(candidates):
                    verifier.verify_candidate(cand, ms)
            return (
                {(m.trajectory_id, m.start, m.end): m.distance for m in ms},
                verifier.stats,
            )

        reference_matches, _ = run(True, True, True)
        visited = {}
        for use_trie in (True, False):
            for early in (True, False):
                matches, reference = run(use_trie, early, True)
                assert matches == reference_matches
                visited[use_trie, early] = reference.visited_columns
                if not use_trie:
                    assert reference.computed_columns == reference.visited_columns
                matches, stats = run(use_trie, early, False)
                assert matches == reference_matches
                assert stats.candidates == reference.candidates
                assert stats.sw_columns == reference.sw_columns
                assert stats.visited_columns == reference.visited_columns
                assert stats.computed_columns == reference.computed_columns
                assert stats.emitted == reference.emitted
        # The trie changes what is recomputed, never what is visited;
        # early termination only ever prunes visits.
        for early in (True, False):
            assert visited[True, early] == visited[False, early]
        assert visited[True, True] <= visited[True, False]

    @given(
        costs=_table_costs(0.25),
        data=strings,
        query=strings,
        tau_steps=st.integers(min_value=1, max_value=24),
    )
    @settings(max_examples=120, deadline=None)
    def test_backends_equal_sw_oracle_exact_costs(self, costs, data, query, tau_steps):
        tau = tau_steps * 0.25
        # The Lemma 1 contract: candidates must come from a valid
        # tau-subsequence; all positions qualify iff c(Q) >= tau.
        assume(sum(costs.filter_cost(q) for q in query) >= tau)
        oracle = {
            (0, s, t): d for s, t, d in all_matches(data, query, costs, tau)
        }
        # Dyadic costs make every sum exact, so the verifier must equal
        # the oracle's keys AND distances with plain float equality.
        assert _verify(costs, data, query, tau) == oracle
