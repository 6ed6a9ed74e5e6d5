"""Verification (Algorithms 3-6): correctness, caching, early termination."""

import pytest

from repro.core.results import MatchSet
from repro.core.trie import TrieCacheEntry
from repro.core.verification import Verifier
from repro.distance.costs import LevenshteinCost
from repro.distance.wed import wed
from tests.conftest import oracle_range

lev = LevenshteinCost()


def make_verifier(data_strings, query, tau, **kwargs):
    return Verifier(lambda tid: data_strings[tid], query, lev, tau, **kwargs)


def candidates_for(data_strings, query):
    """All (id, j, iq) anchors with exact symbol hits (Lev has B(q)={q})."""
    out = []
    for tid, data in enumerate(data_strings):
        for j, sym in enumerate(data):
            for iq, q in enumerate(query):
                if sym == q:
                    out.append((tid, j, iq))
    return out


class TestVerifyCandidate:
    def test_single_exact_match(self):
        data = [[9, 1, 2, 3, 9]]
        query = [1, 2, 3]
        v = make_verifier(data, query, 1.0)
        ms = MatchSet()
        v.verify_all(candidates_for(data, query), ms)
        assert {(m.trajectory_id, m.start, m.end) for m in ms} == {(0, 1, 3)}
        m = ms.to_list()[0]
        assert m.distance == 0.0

    def test_distances_converge_to_exact_wed(self):
        data = [[1, 2, 4, 3]]
        query = [1, 2, 3]
        tau = 2.0
        v = make_verifier(data, query, tau)
        ms = MatchSet()
        v.verify_all(candidates_for(data, query), ms)
        for m in ms:
            assert m.distance == wed(data[0][m.start : m.end + 1], query, lev)

    def test_anchor_over_budget_skipped(self):
        # sub(q, b) >= tau: the candidate cannot produce matches.
        data = [[5]]
        v = make_verifier(data, [5], 0.5)
        ms = MatchSet()
        v.verify_candidate((0, 0, 0), ms)
        assert len(ms) == 1  # sub(5,5)=0 < 0.5: exact single-symbol match

    def test_all_matching_spans_found(self):
        data = [[1, 1, 1]]
        query = [1]
        v = make_verifier(data, query, 2.0)
        ms = MatchSet()
        v.verify_all(candidates_for(data, query), ms)
        assert oracle_range(data, query, lev, 2.0) == {
            (m.trajectory_id, m.start, m.end) for m in ms
        }


class TestEquivalences:
    """Trie caching and early termination must not change results."""

    @pytest.fixture()
    def workload(self, vertex_dataset, rng):
        data = [list(vertex_dataset.symbols(t)) for t in range(len(vertex_dataset))]
        queries = []
        for _ in range(4):
            base = data[rng.randrange(len(data))]
            if len(base) < 7:
                continue
            s = rng.randrange(len(base) - 6)
            queries.append(base[s : s + 6])
        return data, queries

    @pytest.mark.parametrize("tau", [1.0, 2.0, 3.0])
    def test_matches_oracle(self, workload, tau):
        data, queries = workload
        for query in queries:
            v = make_verifier(data, query, tau)
            ms = MatchSet()
            v.verify_all(candidates_for(data, query), ms)
            got = {(m.trajectory_id, m.start, m.end) for m in ms}
            assert got == oracle_range(data, query, lev, tau)

    @pytest.mark.parametrize("early", [True, False])
    def test_trie_off_same_results(self, workload, early):
        """Tries off (python: detached nodes; numpy: a private per-call
        arena) matches tries on, on both walkers — matches exactly, and
        every counter except the recomputation the trie exists to save."""
        data, queries = workload
        for query in queries:
            cands = candidates_for(data, query)
            runs = {}
            for backend in ("python", "numpy"):
                for use_trie in (True, False):
                    v = make_verifier(
                        data,
                        query,
                        2.0,
                        dp_backend=backend,
                        use_trie=use_trie,
                        early_termination=early,
                    )
                    ms = MatchSet()
                    v.verify_all(cands, ms)
                    runs[backend, use_trie] = (
                        sorted((m.trajectory_id, m.start, m.end, m.distance) for m in ms),
                        v.stats,
                    )
            reference = runs["python", True]
            for backend in ("python", "numpy"):
                on, off = runs[backend, True], runs[backend, False]
                assert on == reference
                assert off[0] == reference[0]
                assert off[1] == runs["python", False][1]
                assert off[1].visited_columns == on[1].visited_columns
                assert off[1].computed_columns == off[1].visited_columns

    def test_early_termination_off_same_results(self, workload):
        data, queries = workload
        for query in queries:
            a, b = MatchSet(), MatchSet()
            cands = candidates_for(data, query)
            make_verifier(data, query, 2.0, early_termination=True).verify_all(cands, a)
            make_verifier(data, query, 2.0, early_termination=False).verify_all(cands, b)
            assert a.keys() == b.keys()


class TestCounters:
    def test_trie_reduces_computed_columns(self):
        # Two trajectories sharing a long prefix around the anchor.
        shared = [1, 2, 3, 4, 5, 6]
        data = [shared + [7], shared + [8]]
        query = [2, 3, 4]
        cands = candidates_for(data, query)
        with_trie = make_verifier(data, query, 1.0, use_trie=True)
        without = make_verifier(data, query, 1.0, use_trie=False)
        a, b = MatchSet(), MatchSet()
        with_trie.verify_all(cands, a)
        without.verify_all(cands, b)
        assert with_trie.stats.computed_columns < without.stats.computed_columns
        assert with_trie.stats.visited_columns == without.stats.visited_columns
        assert a.keys() == b.keys()

    def test_early_termination_reduces_visits(self):
        data = [[1] + [9] * 30]
        query = [1, 2]
        cands = [(0, 0, 0)]
        pruned = make_verifier(data, query, 1.5, early_termination=True)
        full = make_verifier(data, query, 1.5, early_termination=False)
        a, b = MatchSet(), MatchSet()
        pruned.verify_all(cands, a)
        full.verify_all(cands, b)
        assert pruned.stats.visited_columns < full.stats.visited_columns
        assert a.keys() == b.keys()

    def test_rates_within_bounds(self, vertex_dataset, rng):
        data = [list(vertex_dataset.symbols(t)) for t in range(len(vertex_dataset))]
        base = max(data, key=len)
        query = base[:6]
        v = make_verifier(data, query, 2.0)
        ms = MatchSet()
        v.verify_all(candidates_for(data, query), ms)
        s = v.stats
        assert 0.0 <= s.unpruned_position_rate <= 1.0
        assert 0.0 <= s.cache_miss_rate <= 1.0
        assert s.total_unpruned_rate <= s.unpruned_position_rate + 1e-9


class TestDedupeAndGrouping:
    """verify_all dedupes exact (id, j, iq) repeats and reorders by anchor
    position — neither may change results or the column counters."""

    @pytest.mark.parametrize("backend", ["python", "numpy"])
    def test_exact_duplicates_verified_once(self, backend):
        data = [[9, 1, 2, 3, 9]]
        query = [1, 2, 3]
        cands = candidates_for(data, query)
        v = make_verifier(data, query, 2.0, dp_backend=backend)
        ms = MatchSet()
        v.verify_all(cands + cands + [cands[0]], ms)
        assert v.stats.duplicate_candidates == len(cands) + 1
        assert v.stats.candidates + v.stats.bound_pruned == len(cands)
        # Results identical to the duplicate-free run.
        clean = make_verifier(data, query, 2.0, dp_backend=backend)
        ref = MatchSet()
        clean.verify_all(cands, ref)
        assert ms.keys() == ref.keys()
        assert clean.stats.duplicate_candidates == 0
        assert v.stats.visited_columns == clean.stats.visited_columns
        assert v.stats.computed_columns == clean.stats.computed_columns

    @pytest.mark.parametrize("backend", ["python", "numpy"])
    def test_order_independent(self, backend, rng):
        data = [[1, 2, 3, 4, 5], [5, 4, 3, 2, 1], [2, 3, 2, 3, 2]]
        query = [2, 3, 4]
        cands = candidates_for(data, query)
        shuffled = list(cands)
        rng.shuffle(shuffled)
        a = make_verifier(data, query, 2.5, dp_backend=backend)
        b = make_verifier(data, query, 2.5, dp_backend=backend)
        ms_a, ms_b = MatchSet(), MatchSet()
        a.verify_all(cands, ms_a)
        b.verify_all(shuffled, ms_b)
        assert ms_a.keys() == ms_b.keys()
        assert a.stats == b.stats

    def test_shared_anchor_row_cached_across_iq(self):
        """Distinct iqs sharing (tid, j) reuse the cached substitution row
        for the anchor symbol — one row materialization, not one per iq."""
        data = [[7, 7, 7, 7]]
        query = [7, 8, 7]  # repeated query symbol: (tid, j) shared by iq 0 and 2
        entry = TrieCacheEntry(lev, query)
        v = make_verifier(data, query, 2.0, dp_backend="numpy", trie_entry=entry)
        ms = MatchSet()
        v.verify_all(candidates_for(data, query), ms)
        # Only symbols 7 (anchor + data) ever need a row.
        assert list(entry.rows.rows) == [7]
