"""Result cache: LRU mechanics, signatures, and correctness under mutation.

The critical property (extending the ``test_core_online_updates``
pattern): after an online insert, a cached answer for an affected query
must be invalidated — the service may never serve a pre-insert answer to
a post-insert client.
"""

import pytest

from repro.core.engine import SubtrajectorySearch, cost_model_id, query_signature
from repro.core.temporal import TimeInterval
from repro.distance.costs import EDRCost, LevenshteinCost
from repro.exceptions import QueryError
from repro.service import QueryService, ResultCache
from repro.trajectory.dataset import TrajectoryDataset
from repro.trajectory.model import Trajectory


class TestResultCache:
    def test_miss_then_hit(self):
        cache = ResultCache(4)
        assert cache.get("k") is None
        cache.put("k", 42)
        assert cache.get("k") == 42

    def test_lru_eviction_order(self):
        cache = ResultCache(2)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.get("a") == 1  # refreshes "a"
        cache.put("c", 3)  # evicts "b", the least recently used
        assert cache.get("b") is None
        assert cache.get("a") == 1 and cache.get("c") == 3

    def test_zero_capacity_disables_retention(self):
        cache = ResultCache(0)
        cache.put("k", 1)
        assert cache.get("k") is None
        assert len(cache) == 0

    def test_negative_capacity_rejected(self):
        with pytest.raises(ValueError):
            ResultCache(-1)

    def test_clear_counts_dropped_entries(self):
        cache = ResultCache(8)
        for i in range(5):
            cache.put(i, i)
        assert cache.clear() == 5
        assert len(cache) == 0 and cache.invalidations == 5

    def test_stale_generation_put_is_dropped(self):
        cache = ResultCache(8)
        generation = cache.generation
        cache.clear()  # an invalidation races past the in-flight compute
        cache.put("k", "stale", generation=generation)
        assert cache.get("k") is None
        cache.put("k", "fresh", generation=cache.generation)
        assert cache.get("k") == "fresh"


class TestQuerySignature:
    def test_same_request_same_signature(self, small_graph):
        costs = EDRCost(small_graph, epsilon=60.0)
        a = query_signature([1, 2, 3], costs, tau=2.0)
        b = query_signature((1, 2, 3), costs, tau=2.0)
        assert a == b and hash(a) == hash(b)

    def test_differs_by_path_tau_and_interval(self, small_graph):
        costs = EDRCost(small_graph, epsilon=60.0)
        base = query_signature([1, 2, 3], costs, tau=2.0)
        assert query_signature([1, 2, 4], costs, tau=2.0) != base
        assert query_signature([1, 2, 3], costs, tau=3.0) != base
        assert query_signature([1, 2, 3], costs, tau_ratio=0.2) != base
        assert (
            query_signature(
                [1, 2, 3], costs, tau=2.0, time_interval=TimeInterval(0, 5)
            )
            != base
        )

    def test_differs_by_cost_model_parameters(self, small_graph):
        a = query_signature([1, 2], EDRCost(small_graph, epsilon=60.0), tau=1.0)
        b = query_signature([1, 2], EDRCost(small_graph, epsilon=80.0), tau=1.0)
        c = query_signature([1, 2], LevenshteinCost(), tau=1.0)
        assert len({a, b, c}) == 3

    def test_equal_across_instances_with_same_parameters(self, small_graph):
        a = cost_model_id(EDRCost(small_graph, epsilon=60.0))
        b = cost_model_id(EDRCost(small_graph, epsilon=60.0))
        assert a == b

    def test_requires_exactly_one_threshold(self, small_graph):
        costs = LevenshteinCost()
        with pytest.raises(QueryError):
            query_signature([1], costs)
        with pytest.raises(QueryError):
            query_signature([1], costs, tau=1.0, tau_ratio=0.1)


class TestCacheUnderMutation:
    """After an online insert, affected cached answers must be dropped."""

    @pytest.fixture()
    def service(self, line_graph):
        ds = TrajectoryDataset(line_graph)
        ds.add(Trajectory([0, 1, 2], timestamps=[0, 1, 2]))
        engine = SubtrajectorySearch(ds, LevenshteinCost())
        svc = QueryService(engine, max_workers=2, cache_size=64)
        yield svc
        svc.close()

    def test_insert_invalidates_affected_cached_answer(self, service):
        before = service.query([3, 4, 5], tau=1.0)
        assert before.result.matches == []
        assert service.query([3, 4, 5], tau=1.0).cached

        tid = service.add_trajectory(Trajectory([3, 4, 5], timestamps=[0, 1, 2]))

        after = service.query([3, 4, 5], tau=1.0)
        assert not after.cached  # the stale empty answer was invalidated
        assert [(m.trajectory_id, m.start, m.end) for m in after.result.matches] == [
            (tid, 0, 2)
        ]

    def test_post_insert_answers_match_rebuilt_engine(self, service, line_graph):
        queries = ([1, 2], [2, 3, 4], [0, 5])
        for q in queries:
            service.query(q, tau=1.5)  # warm the cache pre-insert
        service.add_trajectory(Trajectory([2, 3, 4, 5], timestamps=[1, 2, 3, 4]))

        ds = TrajectoryDataset(line_graph)
        ds.add(Trajectory([0, 1, 2], timestamps=[0, 1, 2]))
        ds.add(Trajectory([2, 3, 4, 5], timestamps=[1, 2, 3, 4]))
        rebuilt = SubtrajectorySearch(ds, LevenshteinCost())
        for q in queries:
            assert service.query(q, tau=1.5).result.matches == rebuilt.query(
                q, tau=1.5
            ).matches

    def test_unchanged_dataset_keeps_serving_hits(self, service):
        service.query([1, 2], tau=1.0)
        assert service.query([1, 2], tau=1.0).cached
        metrics = service.stats()
        assert metrics["cache_hits"] == 1
        assert metrics["invalidations"] == 0

    def test_explicit_invalidate_hook(self, service):
        service.query([1, 2], tau=1.0)
        assert service.invalidate() == 1
        assert not service.query([1, 2], tau=1.0).cached
        assert service.stats()["invalidations"] == 1
