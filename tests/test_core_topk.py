"""Top-k subtrajectory search: exactness via threshold doubling."""

import pytest

from repro.core.engine import SubtrajectorySearch, topk_signature
from repro.core.partitioned import PartitionedSubtrajectorySearch
from repro.core.results import Match
from repro.core.topk import TopKResult, topk_search
from repro.exceptions import QueryCancelledError, QueryError
from repro.trajectory.dataset import TrajectoryDataset
from tests.conftest import oracle_topk, sample_query


class TestTopK:
    def test_invalid_parameters(self, vertex_dataset, edr_cost):
        engine = SubtrajectorySearch(vertex_dataset, edr_cost)
        with pytest.raises(QueryError):
            topk_search(engine, [1, 2], 0)
        with pytest.raises(QueryError):
            topk_search(engine, [1, 2], 3, growth=1.0)
        with pytest.raises(QueryError):
            topk_search(engine, [1, 2], 3, initial_tau_ratio=0.0)
        # NaN passes a `<= 1.0` / `<= 0` guard and then never widens tau:
        # the doubling loop would spin forever.  Must be refused up front.
        with pytest.raises(QueryError):
            topk_search(engine, [1, 2], 3, growth=float("nan"))
        with pytest.raises(QueryError):
            topk_search(engine, [1, 2], 3, initial_tau_ratio=float("nan"))

    @pytest.mark.parametrize("k", [1, 3, 10])
    def test_distances_match_brute_force(self, vertex_dataset, edr_cost, rng, k):
        engine = SubtrajectorySearch(vertex_dataset, edr_cost)
        for _ in range(2):
            query = sample_query(vertex_dataset, rng, 6)
            got = topk_search(engine, query, k)
            want = oracle_topk(vertex_dataset, query, edr_cost, k)
            assert len(got) == len(want)
            for m, (_, d) in zip(got, want):
                assert m.distance == pytest.approx(d)

    def test_results_sorted_and_unique_trajectories(
        self, vertex_dataset, edr_cost, rng
    ):
        engine = SubtrajectorySearch(vertex_dataset, edr_cost)
        query = sample_query(vertex_dataset, rng, 6)
        got = topk_search(engine, query, 8)
        dists = [m.distance for m in got]
        assert dists == sorted(dists)
        ids = [m.trajectory_id for m in got]
        assert len(ids) == len(set(ids))

    def test_k_larger_than_dataset(self, vertex_dataset, edr_cost, rng):
        engine = SubtrajectorySearch(vertex_dataset, edr_cost)
        query = sample_query(vertex_dataset, rng, 5)
        got = topk_search(engine, query, 10_000)
        assert len(got) <= len(vertex_dataset)

    def test_exact_occurrence_ranks_first(self, vertex_dataset, edr_cost, rng):
        engine = SubtrajectorySearch(vertex_dataset, edr_cost)
        query = sample_query(vertex_dataset, rng, 6)
        got = topk_search(engine, query, 1)
        assert got[0].distance == 0.0  # the trajectory the query came from

    def test_surs_edge_representation(self, edge_dataset, surs_cost, rng):
        engine = SubtrajectorySearch(edge_dataset, surs_cost)
        query = sample_query(edge_dataset, rng, 5)
        got = topk_search(engine, query, 5)
        want = oracle_topk(edge_dataset, query, surs_cost, 5)
        for m, (_, d) in zip(got, want):
            assert m.distance == pytest.approx(d)

    def test_result_carries_provenance(self, vertex_dataset, edr_cost, rng):
        engine = SubtrajectorySearch(vertex_dataset, edr_cost)
        query = sample_query(vertex_dataset, rng, 6)
        got = topk_search(engine, query, 4)
        assert isinstance(got, TopKResult)
        assert got.k == 4
        assert got.tau_rounds >= 1
        assert got.tau_final > 0
        assert got.complete and got.degraded_shards == ()
        assert got.total_seconds >= 0
        # Sequence protocol: old List[Match] call sites keep working.
        assert list(got) == got.matches
        assert got[0] == got.matches[0]
        assert len(got) == len(got.matches)

    def test_partitioned_public_accessors(self, vertex_dataset, edr_cost):
        with PartitionedSubtrajectorySearch(
            vertex_dataset, edr_cost, num_shards=3, backend="serial"
        ) as part:
            assert part.costs is edr_cost
            view = part.dataset
            assert len(view) == len(vertex_dataset)
            for tid in range(len(vertex_dataset)):
                assert list(view.symbols(tid)) == list(
                    vertex_dataset.symbols(tid)
                )

    def test_partitioned_matches_single_engine(
        self, vertex_dataset, edr_cost, rng
    ):
        single = SubtrajectorySearch(vertex_dataset, edr_cost)
        with PartitionedSubtrajectorySearch(
            vertex_dataset, edr_cost, num_shards=4, backend="serial"
        ) as part:
            for _ in range(3):
                query = sample_query(vertex_dataset, rng, 6)
                assert list(part.topk(query, 5)) == list(single.topk(query, 5))


class TestTiesAtK:
    def test_duplicate_trajectories_surface_ties(
        self, small_graph, vertex_dataset, edr_cost
    ):
        ds = TrajectoryDataset(small_graph, "vertex")
        trip = vertex_dataset[0]
        ds.extend([trip, trip, vertex_dataset[1]])
        engine = SubtrajectorySearch(ds, edr_cost)
        query = list(ds.symbols(0))[:6]
        got = topk_search(engine, query, 1)
        # Both copies match at distance 0; the cut at k=1 drops one tie.
        assert got[0].distance == 0.0
        assert got.ties_at_k == 1

    def test_no_ties_reported_on_strict_boundary(
        self, vertex_dataset, edr_cost, rng
    ):
        engine = SubtrajectorySearch(vertex_dataset, edr_cost)
        query = sample_query(vertex_dataset, rng, 6)
        got = topk_search(engine, query, len(vertex_dataset))
        # k covers the whole ranking: nothing is cut.
        assert got.ties_at_k == 0

    def test_at_k_truncation_recomputes_ties(self):
        matches = [
            Match(0, 0, 2, 0.0),
            Match(1, 0, 2, 1.0),
            Match(2, 0, 2, 1.0),
            Match(3, 0, 2, 1.0),
        ]
        full = TopKResult(matches=matches, k=4, ties_at_k=0, tau_rounds=1)
        cut = full.at_k(2)
        assert cut.k == 2
        assert [m.trajectory_id for m in cut] == [0, 1]
        assert cut.ties_at_k == 2  # trajectories 2 and 3 tie at distance 1.0
        assert full.ties_at_k == 0  # original untouched

    def test_at_k_propagates_stored_ties_on_equal_boundary(self):
        # Computed at k=2 with one dropped tie at distance 1.0; re-cutting
        # to the same boundary distance must count the stored tie too.
        stored = TopKResult(
            matches=[Match(0, 0, 2, 1.0), Match(1, 0, 2, 1.0)],
            k=2,
            ties_at_k=1,
            tau_rounds=1,
        )
        cut = stored.at_k(1)
        assert cut.ties_at_k == 2  # trajectory 1 plus the one k=2 dropped

    def test_at_k_refuses_deeper_requests(self):
        stored = TopKResult(
            matches=[Match(0, 0, 2, 0.5), Match(1, 0, 2, 1.0)],
            k=2,
            tau_rounds=1,
        )
        assert not stored.covers(3)
        with pytest.raises(QueryError):
            stored.at_k(3)
        # A full ranking (fewer matches than k) answers any depth.
        full = TopKResult(
            matches=[Match(0, 0, 2, 0.5)], k=5, tau_rounds=1
        )
        assert full.covers(100)
        assert full.at_k(100).k == 100


class TestSweepCancellation:
    def test_expired_deadline_stops_within_one_trajectory(
        self, vertex_dataset, edr_cost, rng
    ):
        engine = SubtrajectorySearch(vertex_dataset, edr_cost)
        query = sample_query(vertex_dataset, rng, 6)
        swept = {"symbols": 0}

        class CountingDataset:
            def __len__(self):
                return len(vertex_dataset)

            def symbols(self, tid):
                swept["symbols"] += 1
                return vertex_dataset.symbols(tid)

        class ProxyEngine:
            costs = edr_cost
            dataset = CountingDataset()

            @staticmethod
            def query(query, **kwargs):
                kwargs.pop("trace", None)
                return engine.query(query, **kwargs)

        class TripsAfterFirstSweptTrajectory:
            # Duck-typed token (see repro.core.cancellation): reads as
            # expired once the sweep has scanned one trajectory.
            @staticmethod
            def cancelled():
                return swept["symbols"] >= 1

        # A near-zero first tau plus a huge growth factor exhausts the
        # threshold expansion after one probe, forcing the sweep with
        # nearly every trajectory unseen.
        with pytest.raises(QueryCancelledError):
            topk_search(
                ProxyEngine(),
                query,
                len(vertex_dataset) + 5,
                initial_tau_ratio=1e-9,
                growth=1e9,
                cancel=TripsAfterFirstSweptTrajectory(),
            )
        # The O(|P||Q|) scan in flight finished, but no further
        # trajectory was started after expiry.
        assert swept["symbols"] == 1


class TestTopKSignature:
    def test_k_independent(self, edr_cost):
        assert topk_signature([1, 2, 3], edr_cost) == topk_signature(
            [1, 2, 3], edr_cost
        )
        assert topk_signature([1, 2, 3], edr_cost) != topk_signature(
            [1, 2, 4], edr_cost
        )
        sig = topk_signature([1, 2, 3], edr_cost)
        assert sig[0] == "topk1"
        # No threshold or k component: depth reuse happens in the cache.
        assert len(sig) == 3
