"""End-to-end integration tests.

The heavyweight guarantee: on randomly generated road networks, datasets,
cost models, and queries, the engine's result set equals the exhaustive
Smith–Waterman oracle — across representations, selectors, verifiers, and
DP backends.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.engine import SubtrajectorySearch
from repro.distance.costs import (
    EDRCost,
    ERPCost,
    LevenshteinCost,
    SURSCost,
)
from repro.network.generators import grid_city, random_city
from repro.trajectory.dataset import TrajectoryDataset
from repro.trajectory.generator import TripGenerator
from tests.conftest import oracle_range


def engine_keys(result):
    return {(m.trajectory_id, m.start, m.end) for m in result.matches}


@st.composite
def random_workload(draw):
    """A small random world: network + trips + a query fragment."""
    seed = draw(st.integers(min_value=0, max_value=10_000))
    rng = random.Random(seed)
    style = draw(st.sampled_from(["grid", "random"]))
    if style == "grid":
        graph = grid_city(
            draw(st.integers(4, 7)), draw(st.integers(4, 7)), seed=seed
        )
    else:
        graph = random_city(draw(st.integers(25, 60)), seed=seed)
    gen = TripGenerator(graph, seed=seed + 1)
    trips = gen.generate(draw(st.integers(5, 15)), min_length=4, max_length=20)
    # Clamp to the longest generated trip: min_length only bounds trips at
    # 4, so an unclamped draw of 5-6 can leave no eligible base trajectory.
    qlen = min(draw(st.integers(2, 6)), max(len(t) for t in trips))
    base = rng.choice([t for t in trips if len(t) >= qlen])
    s = rng.randrange(0, len(base) - qlen + 1)
    query = list(base.path[s : s + qlen])
    ratio = draw(st.sampled_from([0.15, 0.25, 0.4]))
    return graph, trips, query, ratio


class TestRandomWorlds:
    @given(random_workload())
    @settings(max_examples=25, deadline=None)
    def test_edr_engine_matches_oracle(self, workload):
        graph, trips, query, ratio = workload
        ds = TrajectoryDataset(graph, "vertex")
        ds.extend(trips)
        costs = EDRCost(graph, epsilon=graph.median_edge_weight())
        engine = SubtrajectorySearch(ds, costs)
        result = engine.query(query, tau_ratio=ratio)
        assert engine_keys(result) == oracle_range(ds, query, costs, result.tau)

    @given(random_workload())
    @settings(max_examples=15, deadline=None)
    def test_erp_engine_matches_oracle(self, workload):
        graph, trips, query, ratio = workload
        ds = TrajectoryDataset(graph, "vertex")
        ds.extend(trips)
        costs = ERPCost(graph, eta=0.1 * graph.median_edge_weight())
        engine = SubtrajectorySearch(ds, costs)
        result = engine.query(query, tau_ratio=ratio)
        assert engine_keys(result) == oracle_range(ds, query, costs, result.tau)

    @given(random_workload())
    @settings(max_examples=15, deadline=None)
    def test_surs_engine_matches_oracle(self, workload):
        graph, trips, query, ratio = workload
        ds = TrajectoryDataset(graph, "edge")
        ds.extend(trips)
        equery = graph.path_to_edges(query)
        costs = SURSCost(graph)
        engine = SubtrajectorySearch(ds, costs)
        result = engine.query(equery, tau_ratio=ratio)
        assert engine_keys(result) == oracle_range(ds, equery, costs, result.tau)

    @given(random_workload())
    @settings(max_examples=15, deadline=None)
    def test_configuration_grid_consistency(self, workload):
        """Every engine configuration returns the same result set."""
        graph, trips, query, ratio = workload
        ds = TrajectoryDataset(graph, "vertex")
        ds.extend(trips)
        costs = LevenshteinCost()
        reference = None
        for selector in ("greedy", "prefix", "all"):
            for verification in ("trie", "local", "sw"):
                engine = SubtrajectorySearch(
                    ds, costs, selector=selector, verification=verification
                )
                keys = engine_keys(engine.query(query, tau_ratio=ratio))
                if reference is None:
                    reference = keys
                else:
                    assert keys == reference, (selector, verification)


class TestPipelineRoundTrips:
    def test_save_load_query_consistency(self, tmp_path, small_graph, trips):
        """Persisted network+dataset answer identically after reload."""
        from repro.network.io import load_network, save_network

        ds = TrajectoryDataset(small_graph, "vertex")
        ds.extend(trips)
        net_path = tmp_path / "net.txt"
        ds_path = tmp_path / "ds.jsonl"
        save_network(small_graph, net_path)
        ds.save(ds_path)
        graph2 = load_network(net_path)
        ds2 = TrajectoryDataset.load(graph2, ds_path)

        costs1 = EDRCost(small_graph, epsilon=60.0)
        costs2 = EDRCost(graph2, epsilon=60.0)
        e1 = SubtrajectorySearch(ds, costs1)
        e2 = SubtrajectorySearch(ds2, costs2)
        query = list(ds.symbols(0))[:6]
        assert engine_keys(e1.query(query, tau_ratio=0.25)) == engine_keys(
            e2.query(query, tau_ratio=0.25)
        )

    def test_incremental_indexing_matches_rebuild(self, small_graph, trips):
        """Appending to the dataset + index equals indexing from scratch."""
        from repro.core.invindex import InvertedIndex

        ds = TrajectoryDataset(small_graph, "vertex")
        ds.extend(trips[:20])
        index = InvertedIndex(ds)
        for t in trips[20:]:
            tid = ds.add(t)
            index.append_trajectory(tid)
        rebuilt = InvertedIndex(ds)
        for sym in set(s for tid in range(len(ds)) for s in ds.symbols(tid)):
            assert sorted(index.postings(sym)) == sorted(rebuilt.postings(sym))

    def test_mapmatch_feeds_engine(self, small_graph):
        """Noisy GPS -> map matching -> search returns the source trip."""
        from repro.trajectory.mapmatch import HMMMapMatcher
        from repro.trajectory.noise import gps_noise

        gen = TripGenerator(small_graph, seed=5, detour_prob=0.0)
        trips = gen.generate(10, min_length=6, max_length=20)
        matcher = HMMMapMatcher(small_graph, sigma=8.0, candidate_radius=60.0)
        ds = TrajectoryDataset(small_graph, "vertex")
        for i, trip in enumerate(trips):
            ds.add(matcher.match(gps_noise(small_graph, trip, sigma=5.0, seed=i)))
        engine = SubtrajectorySearch(ds, EDRCost(small_graph, epsilon=60.0))
        query = list(ds.symbols(0))[:5]
        result = engine.query(query, tau_ratio=0.3)
        assert any(m.trajectory_id == 0 for m in result.matches)
