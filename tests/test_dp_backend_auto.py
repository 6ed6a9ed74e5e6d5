"""Cross-query reuse of a query's substitution rows, and the knobs and
status fields around the one verification walker.

The engine has one walker, so no keyword, flag or status field sets or
reports a configured one.  The cached substitution rows (part of the
query's TrieCache entry) must make repeated-query savings observable
through the engine's surfaces.
"""

import json
import urllib.request

import pytest

from repro.cli import build_parser
from repro.core.engine import DEFAULT_TRIE_CACHE, SubtrajectorySearch
from repro.core.partitioned import PartitionedSubtrajectorySearch
from repro.core.trie import TrieCache, TrieCacheEntry
from repro.distance.costs import CostModel
from repro.exceptions import QueryError
from repro.service import QueryService, ServiceServer
from tests.conftest import sample_query


def long_query(dataset, rng, length):
    """A query longer than the fixture trajectories: concatenated samples
    (queries are arbitrary symbol strings, not necessarily walks)."""
    out = []
    while len(out) < length:
        out.extend(sample_query(dataset, rng, 8))
    return out[:length]


class _CountingRowCost(CostModel):
    """Unit costs that count the substitution rows the engine asks for."""

    representation = "vertex"
    name = "counting"
    row_calls = 0

    def sub(self, a: int, b: int) -> float:
        return 0.0 if a == b else 1.0

    def ins(self, a: int) -> float:
        return 1.0

    def sub_row(self, p, seq):
        self.row_calls += 1
        return super().sub_row(p, seq)


def _engine_key(engine):
    (key,) = engine._trie_cache.keys()
    return key


class TestSubstitutionMatrixCache:
    """Cross-query reuse of a query's substitution rows.  The rows are
    part of the query's TrieCache entry and the separate substitution
    LRU is gone; these are its LRU-order, zero-capacity,
    negative-capacity and first-touch cases ported onto the one cache
    (the class and test names are the seed's, so the ids stay
    comparable)."""

    def test_lru_eviction_and_counters(self, lev_cost):
        cache = TrieCache(2)

        def factory():
            return TrieCacheEntry(lev_cost, [1, 2, 3])

        built = {}
        for name in ("a", "b"):  # two misses
            built[name], _ = cache.lookup(name, factory)
            built[name].direction(0, "f", False).sub_row(7)
        entry, status = cache.lookup("a", factory)  # refreshes recency
        assert status == "hit" and entry is built["a"]
        assert list(entry.directions[0, "f"].sub_rows) == [7]
        cache.lookup("c", factory)  # evicts b (LRU)
        assert cache.keys() == ["a", "c"]
        # b's rows went with its entry: the next lookup starts fresh.
        entry, status = cache.lookup("b", factory)
        assert status == "miss" and entry is not built["b"] and entry.directions == {}
        stats = cache.stats()
        assert stats["size"] == 2
        assert stats["hits"] == 1
        assert stats["misses"] == 4
        assert stats["evictions"] == 2

    def test_zero_capacity_disables(self, lev_cost):
        cache = TrieCache(0)
        seen = []
        for _ in range(2):
            entry, status = cache.lookup("a", lambda: TrieCacheEntry(lev_cost, [1]))
            assert status == "off" and all(entry is not e for e in seen)
            seen.append(entry)
        stats = cache.stats()
        assert (stats["capacity"], stats["size"]) == (0, 0)
        assert (stats["hits"], stats["misses"]) == (0, 0)

    def test_engine_repeated_query_hits(self, vertex_dataset, netedr_cost, rng):
        def row_count(entry):
            return sum(len(state.sub_rows) for state in entry.directions.values())

        engine = SubtrajectorySearch(vertex_dataset, netedr_cost)
        query = sample_query(vertex_dataset, rng, 8)
        first = engine.query(query, tau_ratio=0.3)
        assert engine.status().trie["misses"] == 1
        entry = engine._trie_cache.peek(_engine_key(engine))
        assert entry is not None and entry.query == tuple(query)
        rows = row_count(entry)
        assert rows > 0
        repeat = engine.query(query, tau_ratio=0.3)
        stats = engine.status().trie
        assert stats["hits"] == 1
        assert stats["size"] == 1
        # The hit served the same entry, and an exact repeat computed no
        # new substitution row.
        assert engine._trie_cache.peek(_engine_key(engine)) is entry
        assert row_count(entry) == rows
        # A hit must not change the answer (the rows are dataset-free).
        assert [(m.trajectory_id, m.start, m.end, m.distance) for m in first.matches] == [
            (m.trajectory_id, m.start, m.end, m.distance) for m in repeat.matches
        ]
        # The rows are threshold-independent: varying tau still hits.
        engine.query(query, tau_ratio=0.25)
        stats = engine.status().trie
        assert stats["misses"] == 1
        assert stats["hits"] == 2
        # A different query is a genuine miss.
        other = sample_query(vertex_dataset, rng, 9)
        if other != query:
            engine.query(other, tau_ratio=0.3)
            assert engine.status().trie["misses"] == 2

    def test_engine_cache_disabled(self, vertex_dataset, rng):
        """``trie_cache_size=0`` is no cross-query reuse of any kind: the
        repeat pays for its substitution rows again."""
        costs = _CountingRowCost()
        engine = SubtrajectorySearch(vertex_dataset, costs, trie_cache_size=0)
        query = sample_query(vertex_dataset, rng, 8)
        engine.query(query, tau_ratio=0.3)
        first = costs.row_calls
        engine.query(query, tau_ratio=0.3)
        assert costs.row_calls == 2 * first > 0
        stats = engine.status().trie
        assert (stats["capacity"], stats["size"]) == (0, 0)
        assert (stats["hits"], stats["misses"]) == (0, 0)

    def test_negative_capacity_rejected(self, vertex_dataset, edr_cost):
        with pytest.raises(QueryError):
            SubtrajectorySearch(vertex_dataset, edr_cost, trie_cache_size=-1)
        with pytest.raises(ValueError):
            TrieCache(-1)

    def test_direction_rows_concurrent_first_touch(self, lev_cost):
        """A direction's row cache is shared across server threads via the
        cached entry: concurrent first-touch fills, each holding the
        entry's lock as the verifier does, must neither compute a row
        twice nor tear one."""
        import threading

        query = list(range(24))
        costs = _CountingRowCost()
        entry = TrieCacheEntry(costs, query)
        state = entry.direction(3, "f", False)
        symbols = list(range(500))
        barrier = threading.Barrier(4)

        def fill(offset):
            barrier.wait()
            for s in symbols[offset:] + symbols[:offset]:
                with entry.lock:
                    state.sub_row(s)

        threads = [threading.Thread(target=fill, args=(i * 125,)) for i in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert sorted(state.sub_rows) == symbols
        assert costs.row_calls == len(symbols)  # no row computed twice
        for s in symbols:
            assert state.sub_row(s) == lev_cost.sub_row(s, query[4:])  # no torn rows


class TestKnobRoundTrip:
    """--trie-cache-size: CLI -> engine -> workers -> healthz; there is
    one walker, with no knob anywhere on the way."""

    def test_cli_defaults(self, capsys):
        args = build_parser().parse_args(["serve", "--self-test"])
        assert args.trie_cache_size == DEFAULT_TRIE_CACHE
        query = ["query", "--network", "n", "--trips", "t", "--query", "1"]
        args = build_parser().parse_args(query + ["--trie-cache-size", "0"])
        assert args.trie_cache_size == 0
        # The second cache's flag went with it, and so did the walker's,
        # on both subcommands.
        for argv in (query, ["serve", "--self-test"]):
            for gone in (["--substitution-cache-size", "0"], ["--dp-backend", "numpy"]):
                with pytest.raises(SystemExit):
                    build_parser().parse_args(argv + gone)
                assert "unrecognized arguments" in capsys.readouterr().err

    def test_partitioned_forwards_and_aggregates(self, vertex_dataset, edr_cost, rng):
        engine = PartitionedSubtrajectorySearch(
            vertex_dataset,
            edr_cost,
            num_shards=2,
            trie_cache_size=8,
        )
        query = long_query(vertex_dataset, rng, 16)
        result = engine.query(query, tau_ratio=0.3)
        assert result.dp_backend_used == "python"
        agg = engine.status().trie
        assert agg["shards"] == agg["shards_reporting"] == 2
        # In-process shards share the one cache: capacity is not summed,
        # and shard 0's miss is shard 1's hit.
        assert agg["capacity"] == 8
        assert (agg["misses"], agg["hits"]) == (1, 1)
        engine.query(query, tau_ratio=0.3)
        assert engine.status().trie["hits"] == 3
        engine.close()

    def test_workers_round_trip(self, vertex_dataset, edr_cost, rng):
        engine = PartitionedSubtrajectorySearch(
            vertex_dataset,
            edr_cost,
            num_shards=2,
            backend="processes",
            trie_cache_size=8,
        )
        try:
            query = sample_query(vertex_dataset, rng, 6)
            reference = SubtrajectorySearch(vertex_dataset, edr_cost)
            result = engine.query(query, tau_ratio=0.3)
            expected = reference.query(query, tau_ratio=0.3)
            assert [(m.trajectory_id, m.start, m.end) for m in result.matches] == [
                (m.trajectory_id, m.start, m.end) for m in expected.matches
            ]
            # The verifier ran inside the worker processes.
            assert result.dp_backend_used == expected.dp_backend_used == "python"
            engine.query(query, tau_ratio=0.3)
            agg = engine.status().trie
            assert agg["shards_reporting"] == 2  # idle workers all answer
            # One cache per worker: a miss per worker, then a hit.
            assert agg["capacity"] == 16
            assert agg["hits"] == agg["misses"] == 2
        finally:
            engine.close()

    def test_healthz_survives_unpollable_engine(self, vertex_dataset, edr_cost):
        """A stats poll that raises (dead worker, closed engine) must
        degrade the cache fields, not drop the probe connection —
        /healthz answers liveness, not shard health."""
        engine = PartitionedSubtrajectorySearch(vertex_dataset, edr_cost, num_shards=2)
        service = QueryService(engine)
        with ServiceServer(service) as server:
            server.start()
            engine.close()  # status() now raises QueryError
            with urllib.request.urlopen(server.url + "/healthz", timeout=10) as resp:
                health = json.loads(resp.read().decode("utf-8"))
            assert health["status"] == "ok"
            assert "error" in health["trie_cache"]
            assert "substitution_cache" not in health

    def test_healthz_exposes_backend_and_cache(
        self, small_graph, netedr_cost, rng, trips
    ):
        from repro.trajectory.dataset import TrajectoryDataset

        # A private dataset: the single-node engine mutates its dataset
        # in place on add_trajectory, and the session-scoped fixture
        # must stay at its seeded length for every later test.
        vertex_dataset = TrajectoryDataset(small_graph, "vertex")
        vertex_dataset.extend(trips)
        engine = SubtrajectorySearch(vertex_dataset, netedr_cost)
        service = QueryService(engine)
        with ServiceServer(service) as server:
            server.start()
            query = sample_query(vertex_dataset, rng, 8)
            service.query(query, tau_ratio=0.3)
            # An online insert invalidates the *result* cache, but the
            # query's warm state depends only on query + cost model: the
            # repeat recomputes the answer yet reuses matrix and tries —
            # exactly the saving the /healthz counters must make visible.
            service.add_trajectory(trips[0])
            service.query(query, tau_ratio=0.3)
            with urllib.request.urlopen(server.url + "/healthz", timeout=10) as resp:
                health = json.loads(resp.read().decode("utf-8"))
            assert "dp_backend" not in health  # there is one walker
            assert health["trie_cache"]["hits"] >= 1
            assert health["trie_cache"]["misses"] >= 1
            assert "substitution_cache" not in health  # reported once
            stats = service.stats()
            assert "dp_backend" not in stats
            # /stats alone keeps the retired name, as a projection.
            assert stats["substitution_cache"] == {
                key: stats["trie_cache"][key]
                for key in ("capacity", "size", "hits", "misses")
            }
            assert stats["coalesced_retries"] == 0
