"""Partitioned engine: sharded search equals single-node search."""

import dataclasses
import threading

import pytest

from repro.core.engine import SubtrajectorySearch
from repro.core.frozen import round_robin_shards
from repro.core.partitioned import PartitionedSubtrajectorySearch
from repro.core.remote import WorkerNodeServer
from repro.core.temporal import TimeInterval
from repro.core.wedkernel import native_function
from repro.exceptions import QueryError
from repro.trajectory.dataset import TrajectoryDataset
from tests.conftest import python_kernel, sample_query


@pytest.fixture(scope="module")
def remote_nodes():
    """Three in-thread worker nodes on ephemeral ports (remote backend)."""
    servers, threads = [], []
    for _ in range(3):
        server = WorkerNodeServer("127.0.0.1", 0)
        thread = threading.Thread(
            target=server.serve_forever, name="repro-test-node", daemon=True
        )
        thread.start()
        servers.append(server)
        threads.append(thread)
    yield [s.address for s in servers]
    for server in servers:
        server.close()
    # Leaked acceptor threads would flip default_start_method() to
    # "spawn" for every later test in the run.
    for thread in threads:
        thread.join(10)


def keys(result):
    return [(m.trajectory_id, m.start, m.end) for m in result.matches]


class TestConstruction:
    def test_invalid_shard_count(self, vertex_dataset, edr_cost):
        with pytest.raises(QueryError):
            PartitionedSubtrajectorySearch(vertex_dataset, edr_cost, num_shards=0)

    def test_empty_dataset_rejected(self, small_graph, edr_cost):
        with pytest.raises(QueryError):
            PartitionedSubtrajectorySearch(
                TrajectoryDataset(small_graph), edr_cost
            )

    def test_shards_capped_by_dataset_size(self, small_graph, edr_cost, trips):
        ds = TrajectoryDataset(small_graph)
        ds.add(trips[0])
        ds.add(trips[1])
        p = PartitionedSubtrajectorySearch(ds, edr_cost, num_shards=16)
        assert p.num_shards == 2

    def test_shard_layout_is_the_round_robin_split(self, vertex_dataset, edr_cost):
        # Frozen index files are built from round_robin_shards(); the engine
        # must hold the same trajectories at the same local ids, and its id
        # map must say where each one came from.
        def contents(shards):
            return [[list(s.symbols(i)) for i in range(len(s))] for s in shards]

        with PartitionedSubtrajectorySearch(
            vertex_dataset, edr_cost, num_shards=3
        ) as p:
            assert (
                contents(p._shards)
                == contents(round_robin_shards(vertex_dataset, 3))
                == [
                    [list(vertex_dataset.symbols(g)) for g in ids]
                    for ids in p._global_ids
                ]
            )


class TestExactness:
    @pytest.mark.parametrize("num_shards", [1, 2, 5])
    def test_matches_single_node(self, vertex_dataset, edr_cost, rng, num_shards):
        single = SubtrajectorySearch(vertex_dataset, edr_cost)
        sharded = PartitionedSubtrajectorySearch(
            vertex_dataset, edr_cost, num_shards=num_shards
        )
        for _ in range(3):
            query = sample_query(vertex_dataset, rng, 6)
            a = single.query(query, tau_ratio=0.25)
            b = sharded.query(query, tau_ratio=0.25)
            assert keys(a) == keys(b)
            assert a.tau == b.tau

    def test_distances_preserved(self, vertex_dataset, edr_cost, rng):
        single = SubtrajectorySearch(vertex_dataset, edr_cost)
        sharded = PartitionedSubtrajectorySearch(
            vertex_dataset, edr_cost, num_shards=3
        )
        query = sample_query(vertex_dataset, rng, 6)
        a = single.query(query, tau_ratio=0.25)
        b = sharded.query(query, tau_ratio=0.25)
        for ma, mb in zip(a.matches, b.matches):
            assert ma.distance == pytest.approx(mb.distance)

    def test_temporal_constraints_pass_through(self, vertex_dataset, edr_cost, rng):
        times = sorted(
            vertex_dataset[t].start_time for t in range(len(vertex_dataset))
        )
        interval = TimeInterval(times[0], times[len(times) // 2])
        single = SubtrajectorySearch(vertex_dataset, edr_cost)
        sharded = PartitionedSubtrajectorySearch(
            vertex_dataset, edr_cost, num_shards=4
        )
        query = sample_query(vertex_dataset, rng, 6)
        a = single.query(query, tau_ratio=0.25, time_interval=interval)
        b = sharded.query(query, tau_ratio=0.25, time_interval=interval)
        assert keys(a) == keys(b)

    def test_engine_options_forwarded(self, vertex_dataset, edr_cost, rng):
        sharded = PartitionedSubtrajectorySearch(
            vertex_dataset,
            edr_cost,
            num_shards=3,
            verification="sw",
            selector="prefix",
        )
        single = SubtrajectorySearch(vertex_dataset, edr_cost)
        query = sample_query(vertex_dataset, rng, 6)
        assert keys(sharded.query(query, tau_ratio=0.25)) == keys(
            single.query(query, tau_ratio=0.25)
        )

    def test_stats_aggregate_over_shards(self, vertex_dataset, edr_cost, rng):
        sharded = PartitionedSubtrajectorySearch(
            vertex_dataset, edr_cost, num_shards=3
        )
        query = sample_query(vertex_dataset, rng, 6)
        result = sharded.query(query, tau_ratio=0.25)
        assert result.num_candidates >= 0
        assert result.verification.sw_columns > 0


class TestParallelFanOut:
    def test_shard_callables_merge_equals_query(self, vertex_dataset, edr_cost, rng):
        sharded = PartitionedSubtrajectorySearch(
            vertex_dataset, edr_cost, num_shards=3
        )
        query = sample_query(vertex_dataset, rng, 6)
        calls = sharded.shard_query_callables(query, tau_ratio=0.25)
        assert len(calls) == sharded.num_shards
        merged = sharded.merge_shard_results([call() for call in calls])
        assert keys(merged) == keys(sharded.query(query, tau_ratio=0.25))

    def test_merge_names_every_kernel_that_ran(self, vertex_dataset, edr_cost, rng):
        """A shard whose DP kernel fell back to Python shows in the
        merged ``dp_backend_used``: the distinct kernels, joined with
        ``+`` as the trie-cache statuses are."""
        if native_function() is None:
            pytest.skip("the native kernel is unavailable here (see the WARNING)")
        sharded = PartitionedSubtrajectorySearch(
            vertex_dataset, edr_cost, num_shards=2
        )
        query = sample_query(vertex_dataset, rng, 6)
        native_call, python_call = sharded.shard_query_callables(query, tau_ratio=0.25)
        native = native_call()
        with python_kernel():
            python = python_call()
        assert (native.dp_backend_used, python.dp_backend_used) == ("native", "python")
        merged = sharded.merge_shard_results([native, python])
        assert merged.dp_backend_used == "native+python"
        assert merged.dp_rounds == native.dp_rounds + python.dp_rounds
        both_native = sharded.merge_shard_results([native, native_call()])
        assert both_native.dp_backend_used == "native"

    def test_merge_rejects_wrong_result_count(self, vertex_dataset, edr_cost, rng):
        sharded = PartitionedSubtrajectorySearch(
            vertex_dataset, edr_cost, num_shards=3
        )
        query = sample_query(vertex_dataset, rng, 6)
        calls = sharded.shard_query_callables(query, tau_ratio=0.25)
        with pytest.raises(QueryError):
            sharded.merge_shard_results([calls[0]()])


class TestBackends:
    """The backend knob: identical answers, differing only in where the
    shard engines live (the parent / worker processes / worker nodes)."""

    @pytest.mark.parametrize(
        "backend,kwargs",
        [
            ("serial", {}),
            ("serial", {"num_shards": 1}),
            ("processes", {"num_shards": 1}),  # no shard threads: inline
            ("processes", {}),
            ("remote", {}),
        ],
    )
    def test_every_backend_matches_single_node(
        self, request, vertex_dataset, edr_cost, rng, backend, kwargs
    ):
        kwargs = {"num_shards": 3, **kwargs}
        if backend == "remote":
            kwargs = dict(kwargs, shard_map=request.getfixturevalue("remote_nodes"))
        single = SubtrajectorySearch(vertex_dataset, edr_cost)
        with PartitionedSubtrajectorySearch(
            vertex_dataset, edr_cost, backend=backend, **kwargs
        ) as sharded:
            assert sharded.backend == backend
            query = sample_query(vertex_dataset, rng, 6)
            a = single.query(query, tau_ratio=0.25)
            b = sharded.query(query, tau_ratio=0.25)
            assert keys(a) == keys(b)
            assert [m.distance for m in a.matches] == pytest.approx(
                [m.distance for m in b.matches]
            )

    @pytest.mark.parametrize("backend", ["serial", "processes"])
    def test_merged_stats_are_the_shard_engines_sum(
        self, vertex_dataset, edr_cost, backend
    ):
        """Every VerificationStats field of a merged answer is the sum of
        the shard engines' own — ``bound_pruned`` included, non-zero."""
        query = list(vertex_dataset.symbols(4)[:6])
        shards = [
            SubtrajectorySearch(shard, edr_cost, trie_cache_size=0)
            for shard in round_robin_shards(vertex_dataset, 2)
        ]
        parts = [engine.query(query, tau_ratio=0.25).verification for engine in shards]
        with PartitionedSubtrajectorySearch(
            vertex_dataset,
            edr_cost,
            backend=backend,
            num_shards=2,
            trie_cache_size=0,
        ) as sharded:
            merged = sharded.query(query, tau_ratio=0.25).verification
        assert {
            f.name: getattr(merged, f.name) for f in dataclasses.fields(merged)
        } == {
            f.name: sum(getattr(part, f.name) for part in parts)
            for f in dataclasses.fields(merged)
        }
        assert merged.bound_pruned > 0

    def test_only_worker_shards_get_shard_threads(self, vertex_dataset, edr_cost, rng):
        # The shard threads exist to overlap blocking worker round trips;
        # in-process shards hold the GIL and run in the caller's thread.
        query = sample_query(vertex_dataset, rng, 6)
        for backend, threaded in (("serial", False), ("processes", True)):
            before = set(threading.enumerate())
            with PartitionedSubtrajectorySearch(
                vertex_dataset, edr_cost, num_shards=3, backend=backend
            ) as engine:
                engine.query(query, tau_ratio=0.25)
                started = set(threading.enumerate()) - before
            shard_threads = [t for t in started if t.name.startswith("repro-shard")]
            assert bool(shard_threads) == threaded, backend

    def test_close_idempotent_on_every_backend(
        self, vertex_dataset, edr_cost, remote_nodes
    ):
        for backend in ("serial", "processes", "remote"):
            engine = PartitionedSubtrajectorySearch(
                vertex_dataset,
                edr_cost,
                num_shards=2,
                backend=backend,
                shard_map=remote_nodes if backend == "remote" else None,
            )
            engine.close()
            engine.close()

    def test_closed_engine_fails_loudly_on_every_backend(
        self, vertex_dataset, edr_cost, rng, remote_nodes
    ):
        # No backend may silently degrade (e.g. in-process shards answering
        # on) after close: use-after-close is a caller bug.
        for backend in ("serial", "processes", "remote"):
            engine = PartitionedSubtrajectorySearch(
                vertex_dataset,
                edr_cost,
                num_shards=2,
                backend=backend,
                shard_map=remote_nodes if backend == "remote" else None,
            )
            engine.close()
            with pytest.raises(QueryError):
                engine.query(sample_query(vertex_dataset, rng, 6), tau_ratio=0.25)


class TestOnlineUpdates:
    def test_add_trajectory_matches_rebuilt(self, small_graph, edr_cost, trips):
        ds = TrajectoryDataset(small_graph)
        for t in trips[:10]:
            ds.add(t)
        sharded = PartitionedSubtrajectorySearch(ds, edr_cost, num_shards=3)
        for t in trips[10:16]:
            sharded.add_trajectory(t)
        assert len(sharded) == 16

        full = TrajectoryDataset(small_graph)
        for t in trips[:16]:
            full.add(t)
        rebuilt = SubtrajectorySearch(full, edr_cost)
        query = list(trips[12].path[:6])
        assert keys(sharded.query(query, tau_ratio=0.25)) == keys(
            rebuilt.query(query, tau_ratio=0.25)
        )

    def test_global_ids_stay_dense(self, small_graph, edr_cost, trips):
        ds = TrajectoryDataset(small_graph)
        ds.add(trips[0])
        ds.add(trips[1])
        sharded = PartitionedSubtrajectorySearch(ds, edr_cost, num_shards=2)
        assert sharded.add_trajectory(trips[2]) == 2
        assert sharded.add_trajectory(trips[3]) == 3
        assert len(sharded) == 4

    def test_failed_insert_rolls_back_id_reservation(
        self, small_graph, edr_cost, trips
    ):
        from repro.trajectory.model import Trajectory

        ds = TrajectoryDataset(small_graph)
        ds.add(trips[0])
        ds.add(trips[1])
        sharded = PartitionedSubtrajectorySearch(ds, edr_cost, num_shards=2)
        with pytest.raises(Exception):
            sharded.add_trajectory(Trajectory([0, 0]), validate=True)
        assert len(sharded) == 2
        assert sharded.add_trajectory(trips[2]) == 2

    def test_edge_rep_bad_insert_leaves_engine_consistent(
        self, small_graph, surs_cost, trips
    ):
        from repro.trajectory.model import Trajectory

        ds = TrajectoryDataset(small_graph, "edge")
        ds.add(trips[0])
        ds.add(trips[1])
        sharded = PartitionedSubtrajectorySearch(ds, surs_cost, num_shards=2)
        # A non-walk whose edge conversion fails must not leave an orphan
        # in any shard dataset (id maps would misalign permanently).
        with pytest.raises(Exception):
            sharded.add_trajectory(Trajectory([0, 35, 1]))
        assert len(sharded) == 2
        gid = sharded.add_trajectory(trips[2])
        assert gid == 2
        query = list(ds.symbols(0))[:4]
        result = sharded.query(query, tau_ratio=0.25)
        assert all(m.trajectory_id < 3 for m in result.matches)

    def test_sorted_index_insert_rejected_before_commit(
        self, small_graph, edr_cost, trips
    ):
        ds = TrajectoryDataset(small_graph)
        ds.add(trips[0])
        ds.add(trips[1])
        sharded = PartitionedSubtrajectorySearch(
            ds, edr_cost, num_shards=2, sort_by_departure=True
        )
        with pytest.raises(ValueError):
            sharded.add_trajectory(trips[2])
        # No orphan: shard datasets and id maps stay aligned.
        assert len(sharded) == 2
        for engine, ids in zip(sharded._engines, sharded._global_ids):
            assert len(engine.dataset) == len(ids)

    def test_concurrent_inserts_get_unique_ids(self, small_graph, edr_cost, trips):
        from concurrent.futures import ThreadPoolExecutor

        ds = TrajectoryDataset(small_graph)
        ds.add(trips[0])
        ds.add(trips[1])
        sharded = PartitionedSubtrajectorySearch(ds, edr_cost, num_shards=2)
        with ThreadPoolExecutor(max_workers=8) as pool:
            ids = list(pool.map(sharded.add_trajectory, trips[2:26]))
        assert sorted(ids) == list(range(2, 26))
        assert len(sharded) == 26
