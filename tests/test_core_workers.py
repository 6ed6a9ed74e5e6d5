"""Process-backed shard workers: exactness, replication, lifecycle."""

import multiprocessing as mp
import threading
import time

import pytest

from repro.core import workers as workers_module
from repro.core.engine import SubtrajectorySearch
from repro.core.partitioned import PartitionedSubtrajectorySearch
from repro.core.temporal import TimeInterval
from repro.core.workers import default_start_method
from repro.exceptions import QueryError, WorkerError
from repro.faultinject import FaultPlan, FaultRule
from repro.trajectory.dataset import TrajectoryDataset
from tests.conftest import (
    GatedEDRCost,
    gate_events,
    kill_worker,
    sample_query,
    worker_process,
)


def keys(result):
    return [(m.trajectory_id, m.start, m.end) for m in result.matches]


@pytest.fixture(scope="module")
def process_engine(vertex_dataset, edr_cost):
    engine = PartitionedSubtrajectorySearch(
        vertex_dataset, edr_cost, num_shards=2, backend="processes"
    )
    yield engine
    engine.close()


class TestConfiguration:
    def test_unknown_backend_rejected(self, vertex_dataset, edr_cost):
        with pytest.raises(QueryError):
            PartitionedSubtrajectorySearch(
                vertex_dataset, edr_cost, backend="fibers"
            )

    def test_threads_backend_is_gone(self, vertex_dataset, edr_cost):
        # Verification holds the GIL, so in-process shards run serially.
        with pytest.raises(QueryError, match=r"\('serial', 'processes', 'remote'\)"):
            PartitionedSubtrajectorySearch(
                vertex_dataset, edr_cost, backend="threads"
            )

    @pytest.mark.parametrize("backend", ["serial", "processes"])
    def test_max_workers_is_not_an_engine_option(
        self, vertex_dataset, edr_cost, backend
    ):
        # One worker (and one shard thread) per shard: nothing to
        # size.  The name is forwarded like any unknown engine option and
        # refused by the shard engine, at construction, on every backend.
        with pytest.raises(TypeError):
            PartitionedSubtrajectorySearch(
                vertex_dataset, edr_cost, backend=backend, max_workers=2
            )

    def test_backend_defaults_preserve_old_semantics(self, vertex_dataset, edr_cost):
        with PartitionedSubtrajectorySearch(vertex_dataset, edr_cost) as engine:
            assert engine.backend == "serial"

    def test_default_start_method_is_valid(self):
        assert default_start_method() in mp.get_all_start_methods()

    def test_worker_engine_build_error_raises_at_construction(
        self, vertex_dataset, edr_cost
    ):
        # Readiness handshake: bad engine options fail in the constructor
        # with their real cause, exactly like the in-process backends.
        with pytest.raises(QueryError, match="selector"):
            PartitionedSubtrajectorySearch(
                vertex_dataset,
                edr_cost,
                num_shards=2,
                backend="processes",
                selector="typo",
            )


class TestExactness:
    def test_matches_single_node(self, process_engine, vertex_dataset, edr_cost, rng):
        single = SubtrajectorySearch(vertex_dataset, edr_cost)
        assert process_engine.backend == "processes"
        for _ in range(3):
            query = sample_query(vertex_dataset, rng, 6)
            a = single.query(query, tau_ratio=0.25)
            b = process_engine.query(query, tau_ratio=0.25)
            assert keys(a) == keys(b)
            assert [m.distance for m in a.matches] == pytest.approx(
                [m.distance for m in b.matches]
            )
            assert a.tau == b.tau

    def test_temporal_constraints_cross_the_pipe(
        self, process_engine, vertex_dataset, edr_cost, rng
    ):
        times = sorted(
            vertex_dataset[t].start_time for t in range(len(vertex_dataset))
        )
        interval = TimeInterval(times[0], times[len(times) // 2])
        single = SubtrajectorySearch(vertex_dataset, edr_cost)
        query = sample_query(vertex_dataset, rng, 6)
        a = single.query(query, tau_ratio=0.25, time_interval=interval)
        b = process_engine.query(query, tau_ratio=0.25, time_interval=interval)
        assert keys(a) == keys(b)

    def test_shard_callables_merge_equals_query(
        self, process_engine, vertex_dataset, rng
    ):
        query = sample_query(vertex_dataset, rng, 6)
        calls = process_engine.shard_query_callables(query, tau_ratio=0.25)
        assert len(calls) == process_engine.num_shards
        merged = process_engine.merge_shard_results([call() for call in calls])
        assert keys(merged) == keys(process_engine.query(query, tau_ratio=0.25))

    def test_stats_aggregate_over_worker_shards(
        self, process_engine, vertex_dataset, rng
    ):
        query = sample_query(vertex_dataset, rng, 6)
        result = process_engine.query(query, tau_ratio=0.25)
        assert result.verification.sw_columns > 0

    def test_each_cache_accessor_is_one_poll_of_the_workers(
        self, process_engine, monkeypatch
    ):
        pool = process_engine._workers
        probes = []
        for worker in pool._workers:
            probe = worker.probe
            monkeypatch.setattr(
                worker,
                "probe",
                lambda kind, probe=probe, shard=worker.index: (
                    probes.append((shard, kind)) or probe(kind)
                ),
            )
        status = process_engine.status()
        assert probes == [(shard, "stats") for shard in range(len(status.shards))]
        # Every projection reads that one snapshot: no further polls.
        assert status.trie["shards_reporting"] == len(status.shards)
        assert status.index["shards_reporting"] == len(status.shards)
        assert status.restarts_total == 0 and status.degraded_shards == []
        assert len(probes) == len(status.shards)

    def test_spawn_start_method_ships_pickled_shards(
        self, vertex_dataset, edr_cost, rng
    ):
        # spawn exercises the full pickling path (fork merely inherits).
        engine = PartitionedSubtrajectorySearch(
            vertex_dataset,
            edr_cost,
            num_shards=2,
            backend="processes",
            start_method="spawn",
        )
        try:
            single = SubtrajectorySearch(vertex_dataset, edr_cost)
            query = sample_query(vertex_dataset, rng, 6)
            assert keys(engine.query(query, tau_ratio=0.25)) == keys(
                single.query(query, tau_ratio=0.25)
            )
        finally:
            engine.close()


class TestReplication:
    def test_failed_insert_rolls_back_reservation(self, small_graph, edr_cost, trips):
        from repro.trajectory.model import Trajectory

        ds = TrajectoryDataset(small_graph)
        ds.add(trips[0])
        ds.add(trips[1])
        with PartitionedSubtrajectorySearch(
            ds, edr_cost, num_shards=2, backend="processes"
        ) as sharded:
            # The worker's engine rejects the non-walk; the parent must
            # roll back the reserved global id and stay usable.
            with pytest.raises(Exception):
                sharded.add_trajectory(Trajectory([0, 0]), validate=True)
            assert len(sharded) == 2
            assert sharded.add_trajectory(trips[2]) == 2
            assert len(sharded) == 3


class TestLifecycle:
    def test_workers_are_daemon_processes(self, process_engine):
        states = process_engine.status().workers
        assert all(s.alive for s in states)
        assert all(worker_process(s.pid).daemon for s in states)

    def test_pool_registered_for_atexit_cleanup(self, process_engine):
        assert process_engine._workers in workers_module._LIVE_POOLS

    def test_crashed_worker_surfaces_as_worker_error(
        self, vertex_dataset, edr_cost, rng
    ):
        # A dead worker whose respawns fail stays dead, and the query
        # fails loudly.
        plan = FaultPlan(rules=[FaultRule(shard=0, op="fail_respawn", count=10_000)])
        engine = PartitionedSubtrajectorySearch(
            vertex_dataset, edr_cost, num_shards=2, backend="processes",
            fault_plan=plan,
        )
        try:
            kill_worker(engine.status().workers[0].pid)
            with pytest.raises(WorkerError):
                engine.query(sample_query(vertex_dataset, rng, 6), tau_ratio=0.25)
        finally:
            engine.close()  # close after a crash must still succeed

    def test_crashed_worker_recovers_under_supervision(
        self, vertex_dataset, edr_cost, rng
    ):
        # The supervised pool respawns the dead worker and
        # retries the query — the caller never sees the crash.
        engine = PartitionedSubtrajectorySearch(
            vertex_dataset, edr_cost, num_shards=2, backend="processes"
        )
        try:
            query = sample_query(vertex_dataset, rng, 6)
            before = engine.query(query, tau_ratio=0.25)
            kill_worker(engine.status().workers[0].pid)
            after = engine.query(query, tau_ratio=0.25)
            assert keys(after) == keys(before)
            assert after.complete
            assert engine.status().restarts_total == 1
        finally:
            engine.close()


    def test_respawn_handshake_never_reports_the_dead_pid_alive(
        self, vertex_dataset, edr_cost
    ):
        """``state()`` is read without the shard lock.  While a respawn's
        handshake is held open the new link is up but names no pid yet:
        the snapshot ``/healthz`` projects must not pair ``alive`` with
        the replaced incarnation's pid."""
        engine = PartitionedSubtrajectorySearch(
            vertex_dataset, edr_cost, num_shards=2, backend="processes"
        )
        shard = engine._workers._workers[0]
        receive = shard._receive
        entered, release = threading.Event(), threading.Event()

        def held_handshake(req_id, token, expires):
            if req_id == 0:
                entered.set()
                release.wait(10)
            return receive(req_id, token, expires)

        try:
            dead = engine.status().workers[0].pid
            shard._receive = held_handshake
            kill_worker(dead)
            respawn = threading.Thread(
                target=shard.revive, kwargs={"blocking": True, "force": True}
            )
            respawn.start()
            assert entered.wait(10), "no respawn reached its handshake"
            held = engine.status().workers[0]
            release.set()
            respawn.join(10)
            assert not (held.alive and held.pid == dead)
            assert not held.alive
            after = engine.status().workers[0]
            assert after.alive and after.pid not in (None, dead)
        finally:
            release.set()
            engine.close()


@pytest.mark.skipif(
    "fork" not in mp.get_all_start_methods(),
    reason="gate events need fork inheritance",
)
class TestProbesDoNotQueueBehindQueries:
    """Observability probes must stay non-blocking (ISSUE 6, satellite 3).

    ``/healthz``, ``/stats``, and ``/metrics`` all poll worker cache
    stats; a probe that queues behind a long-running verification on the
    single-request-per-worker pipe would turn every slow query into an
    apparent outage."""

    def test_stats_probes_return_while_query_is_in_flight(
        self, small_graph, vertex_dataset, edr_cost, rng
    ):
        query = sample_query(vertex_dataset, rng, 6)
        results = []
        with gate_events() as (gate, entered):
            engine = PartitionedSubtrajectorySearch(
                vertex_dataset, GatedEDRCost(small_graph, epsilon=60.0),
                num_shards=2, backend="processes", start_method="fork",
            )
            worker = threading.Thread(
                target=lambda: results.append(engine.query(query, tau_ratio=0.25)),
                daemon=True,
            )
            try:
                gate.clear()
                worker.start()
                assert entered.wait(timeout=30.0), "query never reached a worker"

                t0 = time.perf_counter()
                per_worker = engine._workers.status()
                status = engine.status()
                elapsed = time.perf_counter() - t0

                assert elapsed < 2.0, "probe queued behind the blocked query"
                # Busy workers report None / drop out of coverage, not stall.
                assert any(
                    part.trie is None and part.index is None for part in per_worker
                )
                assert all(part.worker.alive for part in per_worker)
                assert status.index["shards"] == status.trie["shards"] == 2
                assert status.index["shards_reporting"] < 2
                assert status.trie["shards_reporting"] < 2
            finally:
                gate.set()
                worker.join(timeout=60.0)
                engine.close()
        assert not worker.is_alive()

        # After release the answer is still exact.
        single = SubtrajectorySearch(vertex_dataset, edr_cost)
        assert results and keys(results[0]) == keys(
            single.query(query, tau_ratio=0.25)
        )
