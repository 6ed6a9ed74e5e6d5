"""The search engine vs the exhaustive oracle — the central correctness test.

Every configuration (cost model x selector x verification mode) must return
exactly the Definition 3 result set.
"""

import pytest

from repro.core.engine import SubtrajectorySearch
from repro.distance.costs import ERPCost
from repro.exceptions import QueryError
from repro.trajectory.dataset import TrajectoryDataset
from repro.trajectory.model import Trajectory
from tests.conftest import oracle_range, sample_query

ALL_MODELS = ["lev_cost", "edr_cost", "erp_cost", "netedr_cost", "neterp_cost", "surs_cost"]


def result_keys(result):
    return {(m.trajectory_id, m.start, m.end) for m in result.matches}


class TestAgainstOracle:
    @pytest.mark.parametrize("model_name", ALL_MODELS)
    def test_default_engine(
        self, model_name, request, vertex_dataset, edge_dataset, rng
    ):
        costs = request.getfixturevalue(model_name)
        dataset = edge_dataset if costs.representation == "edge" else vertex_dataset
        engine = SubtrajectorySearch(dataset, costs)
        for _ in range(4):
            query = sample_query(dataset, rng, 6)
            result = engine.query(query, tau_ratio=0.25)
            assert result_keys(result) == oracle_range(dataset, query, costs, result.tau)

    @pytest.mark.parametrize("selector", ["greedy", "exact", "prefix", "all"])
    def test_all_selectors(self, selector, vertex_dataset, edr_cost, rng):
        engine = SubtrajectorySearch(vertex_dataset, edr_cost, selector=selector)
        for _ in range(3):
            query = sample_query(vertex_dataset, rng, 5)
            result = engine.query(query, tau_ratio=0.3)
            assert result_keys(result) == oracle_range(
                vertex_dataset, query, edr_cost, result.tau
            )

    @pytest.mark.parametrize("verification", ["trie", "local", "sw"])
    def test_all_verifiers(self, verification, vertex_dataset, edr_cost, rng):
        engine = SubtrajectorySearch(
            vertex_dataset, edr_cost, verification=verification
        )
        for _ in range(3):
            query = sample_query(vertex_dataset, rng, 5)
            result = engine.query(query, tau_ratio=0.3)
            assert result_keys(result) == oracle_range(
                vertex_dataset, query, edr_cost, result.tau
            )

    def test_distances_are_exact(self, vertex_dataset, edr_cost, rng):
        from repro.distance.wed import wed

        engine = SubtrajectorySearch(vertex_dataset, edr_cost)
        query = sample_query(vertex_dataset, rng, 6)
        result = engine.query(query, tau_ratio=0.3)
        for m in result.matches:
            sub = vertex_dataset.symbols(m.trajectory_id)[m.start : m.end + 1]
            assert m.distance == pytest.approx(wed(sub, query, edr_cost))

    def test_no_early_termination_same_results(self, vertex_dataset, edr_cost, rng):
        a = SubtrajectorySearch(vertex_dataset, edr_cost, early_termination=True)
        b = SubtrajectorySearch(vertex_dataset, edr_cost, early_termination=False)
        for _ in range(3):
            query = sample_query(vertex_dataset, rng, 6)
            ra = a.query(query, tau_ratio=0.25)
            rb = b.query(query, tau_ratio=0.25)
            assert result_keys(ra) == result_keys(rb)


class TestValidation:
    def test_representation_mismatch_rejected(self, edge_dataset, edr_cost):
        with pytest.raises(QueryError):
            SubtrajectorySearch(edge_dataset, edr_cost)

    def test_unknown_selector_rejected(self, vertex_dataset, edr_cost):
        with pytest.raises(QueryError):
            SubtrajectorySearch(vertex_dataset, edr_cost, selector="magic")

    def test_unknown_verification_rejected(self, vertex_dataset, edr_cost):
        with pytest.raises(QueryError):
            SubtrajectorySearch(vertex_dataset, edr_cost, verification="magic")

    def test_empty_query_rejected(self, vertex_dataset, edr_cost):
        engine = SubtrajectorySearch(vertex_dataset, edr_cost)
        with pytest.raises(QueryError):
            engine.query([], tau=1.0)

    def test_tau_xor_ratio(self, vertex_dataset, edr_cost):
        engine = SubtrajectorySearch(vertex_dataset, edr_cost)
        with pytest.raises(QueryError):
            engine.query([1, 2], tau=1.0, tau_ratio=0.1)
        with pytest.raises(QueryError):
            engine.query([1, 2])

    def test_degenerate_query_rejected(self, vertex_dataset, edr_cost):
        engine = SubtrajectorySearch(vertex_dataset, edr_cost)
        # tau above the total insertion cost: empty string would match.
        with pytest.raises(QueryError):
            engine.query([1, 2], tau=5.0)

    def test_non_positive_tau_returns_empty(self, vertex_dataset, edr_cost):
        engine = SubtrajectorySearch(vertex_dataset, edr_cost)
        result = engine.query([1, 2, 3], tau=0.0)
        assert result.matches == []
        assert result.num_candidates == 0

    @pytest.mark.parametrize("tau", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_tau_rejected(self, vertex_dataset, edr_cost, tau):
        # NaN passes `tau <= 0` and the degenerate-query guard: it used
        # to come back as an empty answer carrying tau=nan.
        engine = SubtrajectorySearch(vertex_dataset, edr_cost)
        with pytest.raises(QueryError, match="finite"):
            engine.query([1, 2, 3], tau=tau)

    @pytest.mark.parametrize("model_name", ALL_MODELS[1:])
    @pytest.mark.parametrize("stray", [-3, 10**6])
    def test_out_of_alphabet_symbol_rejected(
        self, model_name, stray, vertex_dataset, edge_dataset, request
    ):
        """A negative id was answered as ``size + id`` (python indexing)
        and one past the end was an IndexError; both are a QueryError
        now, on range and top-k queries alike."""
        costs = request.getfixturevalue(model_name)
        dataset = edge_dataset if costs.representation == "edge" else vertex_dataset
        engine = SubtrajectorySearch(dataset, costs)
        query = [*dataset.symbols(0)[:3], stray]
        with pytest.raises(QueryError, match="alphabet"):
            engine.query(query, tau_ratio=0.2)
        with pytest.raises(QueryError, match="alphabet"):
            engine.topk(query, 2)

    def test_levenshtein_alphabet_is_unbounded(self, vertex_dataset, lev_cost):
        engine = SubtrajectorySearch(vertex_dataset, lev_cost)
        assert engine.query([1, 2, -3, 10**6], tau=1.0).matches == []


class TestResultObject:
    def test_timings_populated(self, vertex_dataset, edr_cost, rng):
        engine = SubtrajectorySearch(vertex_dataset, edr_cost)
        query = sample_query(vertex_dataset, rng, 5)
        r = engine.query(query, tau_ratio=0.2)
        assert r.mincand_seconds >= 0
        assert r.lookup_seconds >= 0
        assert r.verify_seconds >= 0
        assert r.total_seconds == pytest.approx(
            r.mincand_seconds + r.lookup_seconds + r.verify_seconds
        )

    def test_subsequence_reaches_tau(self, vertex_dataset, edr_cost, rng):
        engine = SubtrajectorySearch(vertex_dataset, edr_cost)
        query = sample_query(vertex_dataset, rng, 6)
        r = engine.query(query, tau_ratio=0.3)
        assert sum(e.cost for e in r.subsequence) >= r.tau - 1e-9

    def test_len_is_match_count(self, vertex_dataset, edr_cost, rng):
        engine = SubtrajectorySearch(vertex_dataset, edr_cost)
        query = sample_query(vertex_dataset, rng, 5)
        r = engine.query(query, tau_ratio=0.2)
        assert len(r) == len(r.matches)

    def test_matches_sorted_deterministically(self, vertex_dataset, edr_cost, rng):
        engine = SubtrajectorySearch(vertex_dataset, edr_cost)
        query = sample_query(vertex_dataset, rng, 5)
        a = engine.query(query, tau_ratio=0.3).matches
        b = engine.query(query, tau_ratio=0.3).matches
        assert a == b
        keys = [(m.trajectory_id, m.start, m.end) for m in a]
        assert keys == sorted(keys)


class TestCandidateAPI:
    def test_candidates_cover_all_matches(self, vertex_dataset, edr_cost, rng):
        """Lemma 1: every match trajectory appears among the candidates."""
        engine = SubtrajectorySearch(vertex_dataset, edr_cost)
        query = sample_query(vertex_dataset, rng, 6)
        result = engine.query(query, tau_ratio=0.25)
        cands = engine.candidates(query, tau=result.tau)
        cand_ids = {tid for tid, _, _ in cands}
        for m in result.matches:
            assert m.trajectory_id in cand_ids
        # Moreover, some anchor must sit inside each matched span.
        spans = {}
        for tid, j, _ in cands:
            spans.setdefault(tid, []).append(j)
        for m in result.matches:
            assert any(m.start <= j <= m.end for j in spans[m.trajectory_id])

    def test_greedy_candidates_never_more_than_all(self, vertex_dataset, edr_cost, rng):
        greedy = SubtrajectorySearch(vertex_dataset, edr_cost, selector="greedy")
        every = SubtrajectorySearch(vertex_dataset, edr_cost, selector="all")
        query = sample_query(vertex_dataset, rng, 6)
        tau = greedy.query(query, tau_ratio=0.2).tau
        assert len(greedy.candidates(query, tau=tau)) <= len(
            every.candidates(query, tau=tau)
        )


class TestFallback:
    def test_scan_fallback_when_no_subsequence(self, small_graph):
        """ERP with tiny eta can make c(Q) < tau; the engine must fall back
        to an exact scan rather than miss results."""
        ds = TrajectoryDataset(small_graph)
        ds.add(Trajectory([0, 1, 2, 10, 11]))
        ds.add(Trajectory([20, 21, 22]))
        erp = ERPCost(small_graph, eta=0.0)
        # With eta=0, c(q) = min over other vertices of distance (tiny but
        # positive) — make tau far larger than the sum of filter costs while
        # staying below the degenerate-query bound (sum of ins costs).
        query = [0, 1, 2]
        c_total = sum(erp.filter_cost(q) for q in query)
        ins_total = sum(erp.ins(q) for q in query)
        tau = min(c_total * 50, ins_total * 0.9)
        if tau <= c_total:  # graph geometry made filter costs large: skip
            pytest.skip("filter costs too large to trigger fallback")
        engine = SubtrajectorySearch(ds, erp)
        result = engine.query(query, tau=tau)
        assert result.used_fallback
        assert result_keys(result) == oracle_range(ds, query, erp, tau)
