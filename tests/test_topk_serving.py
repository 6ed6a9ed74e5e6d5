"""Top-k through the whole serving stack: parity, reuse, degradation.

Pins the end-to-end contract of :meth:`QueryService.topk` and the HTTP
``{"k": n}`` mode against a brute-force per-trajectory Smith–Waterman
oracle: every backend (serial, processes, remote), cold and
warm trie cache, and a held-down shard must all produce answers that
are bit-identical to the oracle — or flagged ``complete=False``, never
silently short.
"""

import json
import random
import urllib.error
import urllib.request

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.engine import SubtrajectorySearch
from repro.core.partitioned import PartitionedSubtrajectorySearch
from repro.core.topk import topk_search
from repro.exceptions import QueryError, WorkerError
from repro.faultinject import FaultPlan, FaultRule
from repro.service import QueryService, ServiceServer
from tests.conftest import oracle_topk, sample_query, thread_nodes

pytestmark = pytest.mark.timeout(300)


def single_engine_topk(dataset, query, costs, k):
    """The unsharded reference answer every serving path must reproduce
    bit-for-bit, windows included (``oracle_topk`` pins the ranking; the
    window among equal-distance matches follows the engine's canonical
    tie-break)."""
    return rank_keys(topk_search(SubtrajectorySearch(dataset, costs), query, k))


def rank_keys(result):
    return [(m.trajectory_id, m.start, m.end, m.distance) for m in result]


def distance_keys(result):
    return [(m.trajectory_id, m.distance) for m in result]


def held_down(shard):
    return FaultPlan(
        rules=[
            FaultRule(shard=shard, op="kill_before", request=0),
            FaultRule(shard=shard, op="fail_respawn", count=10_000),
        ]
    )


# ---------------------------------------------------------------------------
# Stack-level parity with the brute-force oracle
# ---------------------------------------------------------------------------


class TestStackParity:
    @settings(
        max_examples=20,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        k=st.integers(min_value=1, max_value=12),
        qlen=st.integers(min_value=4, max_value=10),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    def test_service_topk_is_bit_identical_to_oracle(
        self, vertex_dataset, edr_cost, k, qlen, seed
    ):
        query = sample_query(vertex_dataset, random.Random(seed), qlen)
        engine = SubtrajectorySearch(vertex_dataset, edr_cost)
        service = QueryService(engine, max_workers=2, cache_size=0)
        try:
            response = service.topk(query, k)
        finally:
            service.close()
        assert distance_keys(response.result) == oracle_topk(
            vertex_dataset, query, edr_cost, k
        )
        assert rank_keys(response.result) == single_engine_topk(
            vertex_dataset, query, edr_cost, k
        )
        assert response.result.complete

    @pytest.mark.parametrize("backend", ["serial", "processes"])
    def test_sharded_backends_match_oracle(
        self, vertex_dataset, edr_cost, rng, backend
    ):
        with PartitionedSubtrajectorySearch(
            vertex_dataset, edr_cost, num_shards=3, backend=backend
        ) as engine:
            service = QueryService(engine, cache_size=8)
            try:
                for _ in range(3):
                    query = sample_query(vertex_dataset, rng, 6)
                    response = service.topk(query, 5)
                    assert distance_keys(response.result) == oracle_topk(
                        vertex_dataset, query, edr_cost, 5
                    )
                    assert rank_keys(response.result) == single_engine_topk(
                        vertex_dataset, query, edr_cost, 5
                    )
            finally:
                service.close()

    def test_remote_backend_matches_oracle(self, vertex_dataset, edr_cost, rng):
        query = sample_query(vertex_dataset, rng, 6)
        with thread_nodes(2) as addresses:
            with PartitionedSubtrajectorySearch(
                vertex_dataset,
                edr_cost,
                backend="remote",
                shard_map=addresses,
                connect_timeout=15.0,
            ) as engine:
                service = QueryService(engine, cache_size=8)
                try:
                    response = service.topk(query, 5)
                finally:
                    service.close()
        assert distance_keys(response.result) == oracle_topk(
            vertex_dataset, query, edr_cost, 5
        )
        assert rank_keys(response.result) == single_engine_topk(
            vertex_dataset, query, edr_cost, 5
        )

    def test_cold_and_warm_trie_cache_agree(self, vertex_dataset, edr_cost, rng):
        query = sample_query(vertex_dataset, rng, 6)
        cold_engine = SubtrajectorySearch(
            vertex_dataset, edr_cost, trie_cache_size=0
        )
        warm_engine = SubtrajectorySearch(vertex_dataset, edr_cost)
        cold = topk_search(cold_engine, query, 5)
        first = topk_search(warm_engine, query, 5)
        warm = topk_search(warm_engine, query, 5)  # second pass reuses columns
        want = oracle_topk(vertex_dataset, query, edr_cost, 5)
        assert distance_keys(cold) == want
        assert distance_keys(first) == want
        assert rank_keys(cold) == rank_keys(first) == rank_keys(warm)


# ---------------------------------------------------------------------------
# Cache reuse: a stored k'>=k answer serves k by truncation
# ---------------------------------------------------------------------------


class TestCacheReuse:
    def test_smaller_k_served_without_touching_engine(
        self, vertex_dataset, edr_cost, rng, monkeypatch
    ):
        engine = SubtrajectorySearch(vertex_dataset, edr_cost)
        service = QueryService(engine, cache_size=16)
        try:
            query = sample_query(vertex_dataset, rng, 6)
            full = service.topk(query, 5)
            assert not full.cached

            def refuse(*args, **kwargs):
                raise AssertionError("cache reuse must not reach the engine")

            monkeypatch.setattr(service.executor, "topk", refuse)
            for smaller in (5, 3, 1):
                repeat = service.topk(query, smaller)
                assert repeat.cached
                assert rank_keys(repeat.result) == rank_keys(
                    full.result
                )[:smaller]
                assert repeat.result.k == smaller
        finally:
            service.close()

    def test_deeper_k_recomputes_and_replaces(
        self, vertex_dataset, edr_cost, rng
    ):
        engine = SubtrajectorySearch(vertex_dataset, edr_cost)
        service = QueryService(engine, cache_size=16)
        try:
            query = sample_query(vertex_dataset, rng, 6)
            shallow = service.topk(query, 2)
            deeper = service.topk(query, 6)
            assert not deeper.cached  # k=2 cannot answer k=6
            assert rank_keys(deeper.result)[:2] == rank_keys(shallow.result)
            # The deeper entry replaced the shallow one: both depths now hit.
            assert service.topk(query, 6).cached
            assert service.topk(query, 2).cached
        finally:
            service.close()

    def test_full_ranking_covers_any_depth(self, vertex_dataset, edr_cost, rng):
        engine = SubtrajectorySearch(vertex_dataset, edr_cost)
        service = QueryService(engine, cache_size=16)
        try:
            query = sample_query(vertex_dataset, rng, 6)
            everything = service.topk(query, len(vertex_dataset) + 10)
            assert len(everything.result) <= len(vertex_dataset)
            # The ranking ran out of trajectories, so it answers deeper
            # requests than its own k too.
            deeper = service.topk(query, len(vertex_dataset) + 500)
            assert deeper.cached
            assert rank_keys(deeper.result) == rank_keys(everything.result)
        finally:
            service.close()

    def test_insert_invalidates_topk_entries(
        self, small_graph, vertex_dataset, edr_cost, rng
    ):
        from repro.trajectory.dataset import TrajectoryDataset

        ds = TrajectoryDataset(small_graph, "vertex")
        ds.extend(list(vertex_dataset))
        engine = SubtrajectorySearch(ds, edr_cost)
        service = QueryService(engine, cache_size=16)
        try:
            query = sample_query(ds, rng, 6)
            service.topk(query, 5)
            assert service.topk(query, 5).cached
            service.add_trajectory(ds[0])
            refreshed = service.topk(query, 5)
            assert not refreshed.cached
            assert distance_keys(refreshed.result) == oracle_topk(
                ds, query, edr_cost, 5
            )
        finally:
            service.close()

    def test_range_and_topk_signatures_never_collide(
        self, vertex_dataset, edr_cost, rng
    ):
        engine = SubtrajectorySearch(vertex_dataset, edr_cost)
        service = QueryService(engine, cache_size=16)
        try:
            query = sample_query(vertex_dataset, rng, 6)
            assert service.signature(query, tau=5.0) != service.topk_signature(
                query
            )
            service.query(query, tau_ratio=0.25)
            response = service.topk(query, 3)
            assert not response.cached  # the range entry must not answer it
        finally:
            service.close()


# ---------------------------------------------------------------------------
# Degradation: partial answers are flagged, never silently short
# ---------------------------------------------------------------------------


class TestDegradation:
    @pytest.fixture()
    def degraded_service(self, vertex_dataset, edr_cost):
        engine = PartitionedSubtrajectorySearch(
            vertex_dataset,
            edr_cost,
            num_shards=3,
            backend="processes",
            fault_plan=held_down(1),
        )
        service = QueryService(engine, cache_size=16)
        yield service
        service.close(close_engine=True)

    def test_strict_topk_fails_loudly(self, degraded_service, vertex_dataset, rng):
        query = sample_query(vertex_dataset, rng, 6)
        with pytest.raises(WorkerError):
            degraded_service.topk(query, 5)

    def test_partial_topk_flagged_and_exact_on_live_shards(
        self, degraded_service, vertex_dataset, edr_cost, rng
    ):
        query = sample_query(vertex_dataset, rng, 6)
        response = degraded_service.topk(query, 5, allow_partial=True)
        result = response.result
        assert not result.complete
        assert 1 in result.degraded_shards
        # Round-robin placement: shard 1 owns global ids g with g % 3 == 1.
        live = [t for t in range(len(vertex_dataset)) if t % 3 != 1]
        assert all(m.trajectory_id % 3 != 1 for m in result)
        # On the shards that answered, the ranking is still exact against
        # the oracle restricted to those trajectories.
        assert distance_keys(result) == oracle_topk(
            vertex_dataset, query, edr_cost, 5, tids=live
        )

    def test_degraded_topk_metrics(self, degraded_service, vertex_dataset, rng):
        query = sample_query(vertex_dataset, rng, 6)
        degraded_service.topk(query, 5, allow_partial=True)
        rendered = degraded_service.observability.registry.render()
        assert 'repro_topk_queries_total{outcome="computed"} 1' in rendered
        assert "repro_degraded_queries_total 1" in rendered
        assert "repro_topk_tau_rounds_total" in rendered


# ---------------------------------------------------------------------------
# HTTP: POST /query with {"k": n}
# ---------------------------------------------------------------------------


def _post(url, payload):
    request = urllib.request.Request(
        url,
        data=json.dumps(payload).encode("utf-8"),
        headers={"Content-Type": "application/json"},
    )
    with urllib.request.urlopen(request, timeout=30) as response:
        return response.status, json.loads(response.read().decode("utf-8"))


class TestHTTPTopK:
    @pytest.fixture()
    def served(self, vertex_dataset, edr_cost):
        engine = SubtrajectorySearch(vertex_dataset, edr_cost)
        service = QueryService(engine, max_workers=2, cache_size=32)
        with ServiceServer(service).start() as srv:
            yield srv, engine

    def test_ranked_json_matches_oracle(
        self, served, vertex_dataset, edr_cost, rng
    ):
        srv, _ = served
        query = sample_query(vertex_dataset, rng, 6)
        status, body = _post(
            f"http://{srv.host}:{srv.port}/query", {"path": query, "k": 5}
        )
        assert status == 200
        assert body["k"] == 5
        assert [r["rank"] for r in body["results"]] == list(
            range(1, len(body["results"]) + 1)
        )
        got = [
            (r["trajectory"], r["start"], r["end"], r["distance"])
            for r in body["results"]
        ]
        assert got == single_engine_topk(vertex_dataset, query, edr_cost, 5)
        assert [(t, d) for t, _, _, d in got] == oracle_topk(
            vertex_dataset, query, edr_cost, 5
        )
        assert body["partial"] is False
        assert body["tau_rounds"] >= 1
        assert "ties_at_k" in body
        assert body["cached"] is False

    def test_repeat_smaller_k_is_served_cached(
        self, served, vertex_dataset, rng
    ):
        srv, _ = served
        query = sample_query(vertex_dataset, rng, 6)
        url = f"http://{srv.host}:{srv.port}/query"
        _, first = _post(url, {"path": query, "k": 5})
        _, repeat = _post(url, {"path": query, "k": 3})
        assert repeat["cached"] is True
        assert repeat["k"] == 3
        firsts = [r["distance"] for r in first["results"]][:3]
        assert [r["distance"] for r in repeat["results"]] == firsts

    def test_ties_surface_over_http(self, small_graph, vertex_dataset, edr_cost):
        from repro.trajectory.dataset import TrajectoryDataset

        ds = TrajectoryDataset(small_graph, "vertex")
        trip = vertex_dataset[0]
        ds.extend([trip, trip, vertex_dataset[1]])
        engine = SubtrajectorySearch(ds, edr_cost)
        service = QueryService(engine, cache_size=8)
        with ServiceServer(service).start() as srv:
            status, body = _post(
                f"http://{srv.host}:{srv.port}/query",
                {"path": list(ds.symbols(0))[:6], "k": 1},
            )
        assert status == 200
        assert body["ties_at_k"] == 1

    @pytest.mark.parametrize(
        "payload",
        [
            {"k": 0},
            {"k": -3},
            {"k": 2.5},
            {"k": True},
            {"k": "five"},
            {"k": 3, "tau": 5.0},
            {"k": 3, "tau_ratio": 0.2},
            {"k": 3, "time_from": 0, "time_to": 100},
        ],
    )
    def test_bad_topk_requests_are_400(
        self, served, vertex_dataset, rng, payload
    ):
        srv, _ = served
        body = {"path": sample_query(vertex_dataset, rng, 5), **payload}
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _post(f"http://{srv.host}:{srv.port}/query", body)
        assert excinfo.value.code == 400

    def test_tuning_knobs_forwarded(self, served, vertex_dataset, rng):
        srv, _ = served
        query = sample_query(vertex_dataset, rng, 6)
        status, body = _post(
            f"http://{srv.host}:{srv.port}/query",
            {"path": query, "k": 3, "initial_tau_ratio": 0.4, "growth": 4.0},
        )
        assert status == 200
        # A larger first threshold needs fewer expansion rounds than the
        # default — the knob visibly reached the engine.
        assert body["tau_rounds"] <= 3


# ---------------------------------------------------------------------------
# Seeded kill plan: chaos rounds stay exact or flagged
# ---------------------------------------------------------------------------


class TestSeededKillPlan:
    def test_topk_survives_kill_loop_bit_identically(
        self, vertex_dataset, edr_cost, rng
    ):
        plan = FaultPlan.kill_loop(seed=13, num_shards=3, kills=3, every=2)
        query = sample_query(vertex_dataset, rng, 6)
        want = single_engine_topk(vertex_dataset, query, edr_cost, 5)
        with PartitionedSubtrajectorySearch(
            vertex_dataset,
            edr_cost,
            num_shards=3,
            backend="processes",
            fault_plan=plan,
        ) as engine:
            for _ in range(4):
                got = engine.topk(query, 5)
                # Supervision replays the journal and retries once, so
                # every answer is complete and exact despite the kills.
                assert got.complete
                assert rank_keys(got) == want
