"""One engine status snapshot: the contract every deployment honours.

Both engine classes answer ``status()`` with one
:class:`~repro.core.supervision.EngineStatus`, and ``/healthz``,
``/stats``, ``/metrics`` and the 503 body are projections of it.  One
body runs over the bare engine and all three fan-out backends, so the
endpoint shapes cannot drift apart again.
"""

import json
import sys
import threading
import time
import urllib.error
import urllib.request
from contextlib import contextmanager

import pytest

from repro.cli import build_parser
from repro.core.engine import DEFAULT_TRIE_CACHE, SubtrajectorySearch
from repro.core.partitioned import PartitionedSubtrajectorySearch
from repro.core.supervision import EngineStatus, WorkerState
from repro.core.wedkernel import native_function
from repro.distance.costs import LevenshteinCost
from repro.exceptions import ShardUnavailableError
from repro.network.generators import grid_city
from repro.service import QueryService, ServiceServer
from repro.trajectory.dataset import TrajectoryDataset
from repro.trajectory.generator import TripGenerator
from tests.conftest import (
    GatedEDRCost,
    gate_events,
    needs_fork,
    open_engine,
    sample_query,
)

pytestmark = pytest.mark.timeout(300)

#: deployment -> shard count (``single`` is a bare SubtrajectorySearch).
DEPLOYMENTS = {"single": 1, "serial": 2, "processes": 2, "remote": 2}


def _kernel_name():
    """The DP kernel this process verifies with."""
    return "native" if native_function() else "python"


@contextmanager
def deployed(name, dataset, costs, **kwargs):
    if name == "single":
        with SubtrajectorySearch(dataset, costs, **kwargs) as engine:
            yield engine
    else:
        with open_engine(
            name, dataset, costs, num_shards=DEPLOYMENTS[name], **kwargs
        ) as engine:
            yield engine


class CountingEngine:
    """Stands in for the engine (as ``perf/layers.py``'s ``_ProbeEngine``
    does): counts ``status()`` calls, and fails the next query as a downed
    shard would on request."""

    def __init__(self, engine):
        self._engine = engine
        self.polls = 0
        self.fail_next_query = False

    def __getattr__(self, name):
        return getattr(self._engine, name)

    def status(self):
        self.polls += 1
        return self._engine.status()

    def query(self, query, **kwargs):
        if self.fail_next_query:
            self.fail_next_query = False
            raise ShardUnavailableError("shard 0 is down")
        return self._engine.query(query, **kwargs)


def get(server, path):
    with urllib.request.urlopen(server.url + path, timeout=30) as response:
        body = response.read().decode("utf-8")
        return response.status, body if path == "/metrics" else json.loads(body)


def families_of(rendered):
    return {
        line.split()[2] for line in rendered.splitlines() if line.startswith("# TYPE")
    }


@pytest.mark.parametrize("name", sorted(DEPLOYMENTS))
def test_snapshot_has_one_entry_per_shard_and_totals_are_sums(
    name, vertex_dataset, edr_cost, rng
):
    with deployed(name, vertex_dataset, edr_cost) as engine:
        engine.query(sample_query(vertex_dataset, rng, 6), tau_ratio=0.25)
        status = engine.status()
        assert isinstance(status, EngineStatus)
        assert status.backend == name
        assert status.trajectories == len(vertex_dataset)
        assert len(status.shards) == DEPLOYMENTS[name]
        assert all(isinstance(w, WorkerState) for w in status.workers)
        assert [w.shard for w in status.workers] == list(range(len(status.shards)))
        assert all(w.alive and w.breaker == "closed" for w in status.workers)
        assert status.degraded_shards == [] and status.retry_after == 0.0
        assert all(
            (node is not None) == (name == "remote") for node in status.nodes
        )

        # Every shard reports its index; in-process fan-out shards share
        # one cache, everyone else reports their own.
        index_parts = [shard.index for shard in status.shards]
        trie_parts = [shard.trie for shard in status.shards]
        assert None not in index_parts
        if name == "serial":
            assert trie_parts == [None] * len(status.shards)
            trie_parts = [status.shared_trie]
        else:
            assert status.shared_trie is None and None not in trie_parts
        for totals, parts in ((status.index, index_parts), (status.trie, trie_parts)):
            assert totals["shards"] == totals["shards_reporting"] == len(status.shards)
            for key, value in parts[0].items():
                if isinstance(value, bool) or not isinstance(value, (int, float)):
                    continue
                want = sum(part[key] for part in parts)
                assert totals[key] == (-1 if value < 0 else want), key
        assert status.index["num_postings"] == vertex_dataset.total_symbols()
        assert status.index["backend"] == "dict" and status.index["mmap"] is False
        assert status.trie["max_bytes"] > 0


def test_unbounded_cache_budget_stays_minus_one(vertex_dataset, edr_cost):
    with deployed(
        "processes", vertex_dataset, edr_cost, trie_cache_bytes=None
    ) as engine:
        status = engine.status()
        assert [shard.trie["max_bytes"] for shard in status.shards] == [-1, -1]
        assert status.trie["max_bytes"] == -1


def test_every_deployment_serves_one_shape_from_one_poll_per_request(
    vertex_dataset, edr_cost, rng
):
    query = sample_query(vertex_dataset, rng, 6)
    shapes = {}
    for name in DEPLOYMENTS:
        with deployed(name, vertex_dataset, edr_cost) as engine:
            counting = CountingEngine(engine)
            service = QueryService(counting, cache_size=0)
            with ServiceServer(service, port=0).start() as server:
                polls = {}
                for path in ("/healthz", "/stats", "/metrics"):
                    before = counting.polls
                    code, body = get(server, path)
                    assert code == 200
                    polls[path] = counting.polls - before
                    if path == "/healthz":
                        health = body
                    elif path == "/stats":
                        stats = body
                    else:
                        families = families_of(body)
                counting.fail_next_query = True
                before = counting.polls
                request = urllib.request.Request(
                    server.url + "/query",
                    data=json.dumps({"path": query, "tau_ratio": 0.25}).encode(),
                )
                with pytest.raises(urllib.error.HTTPError) as refused:
                    urllib.request.urlopen(request, timeout=30)
                assert refused.value.code == 503
                unavailable = json.loads(refused.value.read())
                polls["503"] = counting.polls - before
            service.close()
        assert polls == {"/healthz": 1, "/stats": 1, "/metrics": 1, "503": 1}, name
        assert unavailable["degraded_shards"] == []
        assert health["status"] == "ok"
        assert health["backend"] == stats["backend"] == name
        assert "dp_backend" not in health and "dp_backend" not in stats
        assert health["shards"] == stats["num_shards"] == DEPLOYMENTS[name]
        assert len(health["workers"]) == DEPLOYMENTS[name]
        assert health["restarts_total"] == 0
        assert health["trie_cache"] == stats["trie_cache"]
        shapes[name] = {
            "healthz": set(health),
            "healthz.trie_cache": set(health["trie_cache"]),
            "healthz.index": set(health["index"]),
            "healthz.workers": {
                frozenset(set(w) - {"node"}) for w in health["workers"]
            },
            "stats": set(stats),
            "stats.trie_cache": set(stats["trie_cache"]),
            "stats.substitution_cache": set(stats["substitution_cache"]),
            "metrics": {f for f in families if not f.startswith("repro_node_")},
        }
        node_families = {f for f in families if f.startswith("repro_node_")}
        assert bool(node_families) == (name == "remote")
    reference = shapes["single"]
    assert "max_bytes" in reference["healthz.trie_cache"]
    assert {"workers", "restarts_total", "trie_cache", "index"} <= reference["healthz"]
    assert {"bytes", "delta_postings", "shards_reporting"} <= reference["healthz.index"]
    assert {"hits", "misses"} <= reference["stats.substitution_cache"]
    assert {
        "repro_worker_up",
        "repro_worker_restarts_total",
        "repro_shard_breaker_state",
        "repro_shard_consecutive_failures",
        "repro_trie_cache_bytes",
        "repro_index_bytes",
        "repro_cache_shards_reporting",
    } <= reference["metrics"]
    for name, shape in shapes.items():
        assert shape == reference, name


@needs_fork
@pytest.mark.parametrize("link", ["processes", "remote"])
def test_busy_worker_has_none_parts_and_the_probe_does_not_wait(
    link, small_graph, vertex_dataset, rng
):
    query = sample_query(vertex_dataset, rng, 6)
    with gate_events() as (gate, entered):
        with deployed(
            link, vertex_dataset, GatedEDRCost(small_graph, epsilon=60.0)
        ) as engine:
            # Hold shard 0's worker inside verification; shard 1 stays idle.
            call = engine.shard_query_callables(query, tau_ratio=0.25)[0]
            holder = threading.Thread(target=call, daemon=True)
            service = QueryService(engine)
            try:
                gate.clear()
                holder.start()
                assert entered.wait(timeout=30.0), "query never reached the worker"
                with ServiceServer(service, port=0).start() as server:
                    t0 = time.perf_counter()
                    status = engine.status()
                    _, health = get(server, "/healthz")
                    _, stats = get(server, "/stats")
                    _, metrics = get(server, "/metrics")
                    elapsed = time.perf_counter() - t0
            finally:
                gate.set()
                holder.join(timeout=60.0)
                service.close()
            assert not holder.is_alive()
    assert elapsed < 4.0, "a probe queued behind the blocked query"
    busy, idle = status.shards
    assert busy.trie is None and busy.index is None
    assert idle.trie is not None and idle.index is not None
    assert busy.worker.alive and status.degraded_shards == []
    for block in (status.trie, status.index, health["trie_cache"], health["index"],
                  stats["trie_cache"]):
        assert (block["shards"], block["shards_reporting"]) == (2, 1)
    assert status.index["num_postings"] == idle.index["num_postings"]
    assert health["status"] == "ok" and len(health["workers"]) == 2
    assert 'repro_index_bytes{shard="1"}' in metrics
    assert 'repro_index_bytes{shard="0"}' not in metrics
    assert "repro_cache_shards_reporting 1" in metrics


@pytest.mark.parametrize("name", sorted(DEPLOYMENTS))
def test_closed_engine_degrades_healthz_and_stats_alike(
    name, vertex_dataset, edr_cost
):
    with deployed(name, vertex_dataset, edr_cost) as engine:
        service = QueryService(engine)
        with ServiceServer(service, port=0).start() as server:
            engine.close()
            codes, bodies = zip(*(get(server, p) for p in ("/healthz", "/stats", "/metrics")))
        service.close()
    health, stats, metrics = bodies
    assert codes == (200, 200, 200)  # never a 400, never a dropped probe
    assert health["status"] == "ok"
    if name == "single":
        # Nothing to release: a bare engine keeps answering.
        assert "error" not in health["trie_cache"] and "error" not in stats["trie_cache"]
        assert "repro_worker_up" in metrics
        return
    for block in (health["trie_cache"], health["index"], health["workers"][0],
                  stats["trie_cache"], stats["substitution_cache"]):
        assert "closed" in block["error"]
    assert "queries" in stats and "repro_query_latency_seconds" in metrics
    for family in ("repro_worker_up", "repro_trie_cache_bytes", "repro_index_bytes"):
        assert family not in metrics


def test_status_survives_inserts_that_add_symbols():
    """A probe walks the postings while inserts publish new symbols into
    them: no ``dictionary changed size during iteration``."""
    graph = grid_city(30, 30, seed=11)
    generator = TripGenerator(graph, seed=12)
    dataset = TrajectoryDataset(graph, "vertex")
    dataset.extend(generator.generate(2, min_length=5, max_length=10))
    incoming = generator.generate(1200, min_length=5, max_length=40)
    engine = SubtrajectorySearch(dataset, LevenshteinCost())
    symbols_before = engine.status().index["num_symbols"]
    failures, probes, done = [], [0], threading.Event()

    def insert():
        try:
            for trajectory in incoming:
                engine.add_trajectory(trajectory)
        except Exception as exc:  # noqa: BLE001 - reported below
            failures.append(exc)
        finally:
            done.set()

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        inserter = threading.Thread(target=insert, daemon=True)
        inserter.start()
        deadline = time.monotonic() + 120.0
        while not done.is_set() and time.monotonic() < deadline:
            try:
                engine.status()
            except Exception as exc:  # noqa: BLE001 - reported below
                failures.append(exc)
            probes[0] += 1
        inserter.join(timeout=120.0)
    finally:
        sys.setswitchinterval(interval)
    assert not inserter.is_alive()
    assert failures == []
    assert probes[0] > 0
    final = engine.status().index
    assert final["num_symbols"] > symbols_before
    assert final["num_postings"] == dataset.total_symbols()


def long_query(dataset, rng, length):
    """A query longer than the fixture trajectories: concatenated samples
    (queries are arbitrary symbol strings, not necessarily walks)."""
    out = []
    while len(out) < length:
        out.extend(sample_query(dataset, rng, 8))
    return out[:length]


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
        assert result.dp_backend_used == _kernel_name()
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
            assert result.dp_backend_used == expected.dp_backend_used == _kernel_name()
            assert result.dp_rounds > 0
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
