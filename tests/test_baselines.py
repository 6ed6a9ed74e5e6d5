"""All baselines return the exact Definition 3 result set, and their
candidate counts order as the paper reports (Fig. 11)."""

import pytest

from repro.baselines import (
    DITAIndex,
    ERPIndex,
    PlainSWScan,
    QGramIndex,
    dison_engine,
    torch_engine,
)
from repro.core.engine import SubtrajectorySearch
from repro.distance.wed import wed
from repro.exceptions import IndexError_, QueryError
from repro.trajectory.dataset import TrajectoryDataset
from tests.conftest import oracle_range, sample_query


def keys(matches):
    return {(m.trajectory_id, m.start, m.end) for m in matches}


@pytest.fixture(scope="module")
def workload(vertex_dataset):
    import random

    rng = random.Random(99)
    return [sample_query(vertex_dataset, rng, 6) for _ in range(3)]


class TestAdaptedEngines:
    @pytest.mark.parametrize("factory", [dison_engine, torch_engine])
    @pytest.mark.parametrize("verification", ["trie", "sw"])
    def test_exact_results(
        self, factory, verification, vertex_dataset, edr_cost, workload
    ):
        engine = factory(vertex_dataset, edr_cost, verification=verification)
        for query in workload:
            result = engine.query(query, tau_ratio=0.25)
            assert keys(result.matches) == oracle_range(
                vertex_dataset, query, edr_cost, result.tau
            )

    def test_candidate_ordering_osf_dison_torch(
        self, vertex_dataset, edr_cost, workload
    ):
        """OSF <= DISON <= Torch in candidate count (Fig. 11 shape)."""
        osf = SubtrajectorySearch(vertex_dataset, edr_cost)
        dison = dison_engine(vertex_dataset, edr_cost)
        torch = torch_engine(vertex_dataset, edr_cost)
        for query in workload:
            tau = osf.query(query, tau_ratio=0.25).tau
            n_osf = len(osf.candidates(query, tau=tau))
            n_dison = len(dison.candidates(query, tau=tau))
            n_torch = len(torch.candidates(query, tau=tau))
            assert n_osf <= n_dison <= n_torch


class TestPlainSW:
    def test_all_semantics_exact(self, vertex_dataset, edr_cost, workload):
        scan = PlainSWScan(vertex_dataset, edr_cost)
        engine = SubtrajectorySearch(vertex_dataset, edr_cost)
        for query in workload:
            tau = engine.query(query, tau_ratio=0.25).tau
            assert keys(scan.query(query, tau)) == oracle_range(
                vertex_dataset, query, edr_cost, tau
            )

    def test_best_semantics_one_per_trajectory(self, vertex_dataset, edr_cost, workload):
        scan = PlainSWScan(vertex_dataset, edr_cost, semantics="best")
        for query in workload:
            got = scan.query(query, 2.0)
            ids = [m.trajectory_id for m in got]
            assert len(ids) == len(set(ids))
            for m in got:
                sub = vertex_dataset.symbols(m.trajectory_id)[m.start : m.end + 1]
                assert wed(sub, query, edr_cost) == m.distance < 2.0

    def test_best_is_subset_of_all(self, vertex_dataset, edr_cost, workload):
        best = PlainSWScan(vertex_dataset, edr_cost, semantics="best")
        full = PlainSWScan(vertex_dataset, edr_cost, semantics="all")
        for query in workload:
            assert keys(best.query(query, 2.0)) <= keys(full.query(query, 2.0))

    def test_unknown_semantics_rejected(self, vertex_dataset, edr_cost):
        with pytest.raises(ValueError):
            PlainSWScan(vertex_dataset, edr_cost, semantics="nope")

    def test_temporal_postfilter(self, vertex_dataset, edr_cost, workload):
        from repro.core.temporal import TimeInterval, match_satisfies

        scan = PlainSWScan(vertex_dataset, edr_cost)
        times = sorted(vertex_dataset[t].start_time for t in range(len(vertex_dataset)))
        interval = TimeInterval(times[0], times[len(times) // 3])
        query = workload[0]
        got = scan.query(query, 2.0, time_interval=interval)
        assert keys(got) <= keys(scan.query(query, 2.0))
        for m in got:
            assert match_satisfies(vertex_dataset, m, interval, "overlap")


class TestQGram:
    def test_exact_results_edr(self, vertex_dataset, edr_cost, workload):
        index = QGramIndex(vertex_dataset, edr_cost)
        for query in workload:
            tau = 1.5
            assert keys(index.query(query, tau)) == oracle_range(
                vertex_dataset, query, edr_cost, tau
            )

    def test_exact_results_lev(self, vertex_dataset, lev_cost, workload):
        index = QGramIndex(vertex_dataset, lev_cost)
        for query in workload:
            assert keys(index.query(query, 2.0)) == oracle_range(
                vertex_dataset, query, lev_cost, 2.0
            )

    def test_candidates_superset_of_matching_ids(
        self, vertex_dataset, edr_cost, workload
    ):
        index = QGramIndex(vertex_dataset, edr_cost)
        for query in workload:
            want_ids = {tid for tid, _, _ in oracle_range(vertex_dataset, query, edr_cost, 1.5)}
            assert want_ids <= set(index.candidates(query, 1.5))

    def test_large_tau_degenerates_to_scan(self, vertex_dataset, edr_cost):
        index = QGramIndex(vertex_dataset, edr_cost)
        query = list(vertex_dataset.symbols(0))[:5]
        # tau so large the count bound is <= 0: every id is a candidate.
        assert len(index.candidates(query, 10.0)) == len(vertex_dataset)

    def test_short_query_scans(self, vertex_dataset, edr_cost):
        index = QGramIndex(vertex_dataset, edr_cost)
        assert len(index.candidates([0, 1], 0.5)) == len(vertex_dataset)

    def test_non_unit_model_rejected(self, vertex_dataset, erp_cost):
        with pytest.raises(QueryError):
            QGramIndex(vertex_dataset, erp_cost)

    def test_bad_q_rejected(self, vertex_dataset, edr_cost):
        with pytest.raises(QueryError):
            QGramIndex(vertex_dataset, edr_cost, q=0)


class TestDITA:
    @pytest.fixture(scope="class")
    def tiny(self, small_graph):
        from repro.trajectory.generator import TripGenerator

        ds = TrajectoryDataset(small_graph)
        ds.extend(TripGenerator(small_graph, seed=3).generate(12, min_length=5, max_length=18))
        return ds

    def test_exact_results(self, tiny, edr_cost):
        import random

        index = DITAIndex(tiny, edr_cost)
        rng = random.Random(5)
        for _ in range(3):
            query = sample_query(tiny, rng, 5)
            assert keys(index.query(query, 1.5)) == oracle_range(tiny, query, edr_cost, 1.5)

    def test_exact_results_erp(self, tiny, erp_cost):
        import random

        index = DITAIndex(tiny, erp_cost)
        rng = random.Random(6)
        query = sample_query(tiny, rng, 5)
        tau = 0.15 * sum(erp_cost.ins(q) for q in query)
        assert keys(index.query(query, tau)) == oracle_range(tiny, query, erp_cost, tau)

    def test_candidates_prune_something(self, tiny, edr_cost):
        import random

        index = DITAIndex(tiny, edr_cost)
        rng = random.Random(7)
        query = sample_query(tiny, rng, 6)
        cands = index.candidates(query, 1.0)
        assert len(cands) < index.num_subtrajectories

    def test_enumeration_limit(self, vertex_dataset, edr_cost):
        with pytest.raises(IndexError_):
            DITAIndex(vertex_dataset, edr_cost, max_subtrajectories=10)

    def test_pivot_strategies(self, tiny, edr_cost, erp_cost):
        assert DITAIndex(tiny, edr_cost)._strategy == "frequent"
        assert DITAIndex(tiny, erp_cost)._strategy == "costly"
        with pytest.raises(IndexError_):
            DITAIndex(tiny, edr_cost, pivot_strategy="nope")

    def test_memory_reported(self, tiny, edr_cost):
        assert DITAIndex(tiny, edr_cost).memory_bytes() > 0


class TestERPIndexBaseline:
    @pytest.fixture(scope="class")
    def tiny(self, small_graph):
        from repro.trajectory.generator import TripGenerator

        ds = TrajectoryDataset(small_graph)
        ds.extend(TripGenerator(small_graph, seed=4).generate(12, min_length=5, max_length=18))
        return ds

    def test_exact_results(self, tiny, erp_cost):
        import random

        index = ERPIndex(tiny, erp_cost)
        rng = random.Random(8)
        for _ in range(3):
            query = sample_query(tiny, rng, 5)
            tau = 0.15 * sum(erp_cost.ins(q) for q in query)
            assert keys(index.query(query, tau)) == oracle_range(tiny, query, erp_cost, tau)

    def test_lower_bound_is_valid(self, tiny, erp_cost):
        """No subtrajectory outside the kd-tree radius can match."""
        import random

        index = ERPIndex(tiny, erp_cost)
        rng = random.Random(9)
        query = sample_query(tiny, rng, 5)
        tau = 0.2 * sum(erp_cost.ins(q) for q in query)
        cands = set(index.candidates(query, tau))
        assert oracle_range(tiny, query, erp_cost, tau) <= cands

    def test_requires_erp_model(self, tiny, edr_cost):
        with pytest.raises(IndexError_):
            ERPIndex(tiny, edr_cost)

    def test_enumeration_limit(self, vertex_dataset, erp_cost):
        with pytest.raises(IndexError_):
            ERPIndex(vertex_dataset, erp_cost, max_subtrajectories=10)

    def test_counts(self, tiny, erp_cost):
        index = ERPIndex(tiny, erp_cost)
        want = sum(
            len(tiny.symbols(t)) * (len(tiny.symbols(t)) + 1) // 2
            for t in range(len(tiny))
        )
        assert index.num_subtrajectories == want
        assert index.memory_bytes() > 0


class TestSURSWithBaselines:
    def test_plain_sw_edge_representation(self, edge_dataset, surs_cost):
        import random

        rng = random.Random(11)
        scan = PlainSWScan(edge_dataset, surs_cost)
        engine = SubtrajectorySearch(edge_dataset, surs_cost)
        query = sample_query(edge_dataset, rng, 5)
        tau = engine.query(query, tau_ratio=0.2).tau
        assert keys(scan.query(query, tau)) == oracle_range(edge_dataset, query, surs_cost, tau)
