"""Remote worker nodes: ``backend="remote"`` over fault-tolerant sockets.

Every scenario here is deterministic: connection drops, half-open links,
injected latency, fragmented writes, and node kills come from a seeded
:class:`repro.faultinject.FaultPlan` keyed to request ordinals, so a
failing run replays bit-identically.

What every link must do whatever it is made of — the handle contract,
connection drops, half-open links, latency, fragmented writes, held-down
shards, replication, lifecycle — is pinned once for both backends in
``tests/test_worker_links.py``; this file keeps what only nodes have:
addressing, the hello/parity path, call deadlines, node kills.

Two node arrangements are used:

- **in-thread nodes** (:class:`WorkerNodeServer` on an ephemeral port,
  served from a daemon thread) for parity and client-side network
  faults — cheap, and safe because no worker-side kill rule ever ships
  to them (``os._exit`` in-process would take pytest down);
- **subprocess nodes** (:func:`run_worker_node` under a respawn
  wrapper) for anything that kills a node: the injected ``kill_before``
  exits the serving child, the wrapper rebinds the port, and the
  client's reconnect backoff finds the replacement.
"""

import multiprocessing as mp
import socket
import time
from contextlib import contextmanager

import pytest

from repro.core.engine import SubtrajectorySearch
from repro.core.partitioned import PartitionedSubtrajectorySearch
from repro.core.remote import load_shard_map, run_worker_node
from repro.exceptions import QueryError, WorkerError
from repro.faultinject import FaultPlan, FaultRule
from repro.trajectory.dataset import TrajectoryDataset
from tests.conftest import sample_query, thread_nodes

pytestmark = pytest.mark.timeout(300)


def keys(result):
    return [(m.trajectory_id, m.start, m.end) for m in result.matches]


def _free_port():
    sock = socket.socket()
    sock.bind(("127.0.0.1", 0))
    port = sock.getsockname()[1]
    sock.close()
    return port


@contextmanager
def process_nodes(count, *, restarts=0):
    """``count`` subprocess worker nodes, each under a respawn wrapper
    that survives ``restarts`` injected kills."""
    ctx = mp.get_context("fork")
    procs, addresses = [], []
    for _ in range(count):
        port = _free_port()
        proc = ctx.Process(
            target=run_worker_node,
            args=("127.0.0.1", port),
            kwargs={"restarts": restarts, "start_method": "fork"},
            name="repro-test-node-wrapper",
        )
        proc.start()
        procs.append(proc)
        addresses.append(f"127.0.0.1:{port}")
    try:
        yield addresses
    finally:
        for proc in procs:
            if proc.is_alive():
                proc.terminate()
        for proc in procs:
            proc.join(10)
            if proc.is_alive():
                proc.kill()
                proc.join(5)


def remote_engine(dataset, costs, addresses, **kwargs):
    kwargs.setdefault("connect_timeout", 15.0)
    return PartitionedSubtrajectorySearch(
        dataset, costs, backend="remote", shard_map=addresses, **kwargs
    )


# ---------------------------------------------------------------------------
# Construction & addressing
# ---------------------------------------------------------------------------


class TestConstruction:
    def test_remote_requires_a_shard_map(self, vertex_dataset, edr_cost):
        with pytest.raises(QueryError, match="shard_map"):
            PartitionedSubtrajectorySearch(
                vertex_dataset, edr_cost, backend="remote"
            )

    def test_shard_map_rejected_on_other_backends(self, vertex_dataset, edr_cost):
        with pytest.raises(QueryError, match="shard_map"):
            PartitionedSubtrajectorySearch(
                vertex_dataset,
                edr_cost,
                backend="processes",
                shard_map=["127.0.0.1:7701"],
            )

    def test_more_nodes_than_trajectories_rejected(self, small_graph, edr_cost, trips):
        ds = TrajectoryDataset(small_graph)
        ds.add(trips[0])
        with pytest.raises(QueryError, match="nodes"):
            PartitionedSubtrajectorySearch(
                ds,
                edr_cost,
                backend="remote",
                shard_map=["127.0.0.1:7701", "127.0.0.1:7702"],
            )

    def test_unreachable_node_fails_within_connect_timeout(
        self, vertex_dataset, edr_cost
    ):
        port = _free_port()  # nothing listens here
        t0 = time.monotonic()
        with pytest.raises(WorkerError):
            remote_engine(
                vertex_dataset,
                edr_cost,
                [f"127.0.0.1:{port}"],
                connect_timeout=0.5,
            )
        assert time.monotonic() - t0 < 10.0

    def test_load_shard_map_shapes(self, tmp_path):
        assert load_shard_map('["127.0.0.1:7701", "127.0.0.1:7702"]') == [
            "127.0.0.1:7701",
            "127.0.0.1:7702",
        ]
        assert load_shard_map('{"nodes": ["127.0.0.1:7701"]}') == ["127.0.0.1:7701"]
        path = tmp_path / "map.json"
        path.write_text('["127.0.0.1:7703"]')
        assert load_shard_map(str(path)) == ["127.0.0.1:7703"]
        with pytest.raises(ValueError):
            load_shard_map("[]")
        with pytest.raises(ValueError):
            load_shard_map('["nohost"]')
        with pytest.raises(ValueError):
            load_shard_map('{"nodes": "127.0.0.1:7701"}')


# ---------------------------------------------------------------------------
# Parity: remote answers are bit-identical to in-process answers
# ---------------------------------------------------------------------------


class TestParity:
    def test_matches_single_node_and_processes_stats(
        self, vertex_dataset, edr_cost, rng
    ):
        single = SubtrajectorySearch(vertex_dataset, edr_cost)
        with thread_nodes(3) as addresses:
            with remote_engine(vertex_dataset, edr_cost, addresses) as remote, (
                PartitionedSubtrajectorySearch(
                    vertex_dataset, edr_cost, num_shards=3, backend="processes"
                )
            ) as procs:
                assert remote.backend == "remote"
                assert remote.num_shards == 3
                assert remote.status().nodes == addresses
                for _ in range(3):
                    query = sample_query(vertex_dataset, rng, 6)
                    a = single.query(query, tau_ratio=0.25)
                    b = remote.query(query, tau_ratio=0.25)
                    c = procs.query(query, tau_ratio=0.25)
                    assert keys(a) == keys(b)
                    assert [m.distance for m in a.matches] == [
                        m.distance for m in b.matches
                    ]
                    assert b.tau == a.tau
                    # Same engine build, same per-worker caches as the
                    # pipe backend: the verification counters are
                    # bit-identical, not merely close.
                    assert b.verification == c.verification
                    assert b.num_candidates == c.num_candidates
                    assert b.complete and b.degraded_shards == ()


class TestObservability:
    def test_node_metrics_render_with_addresses(
        self, vertex_dataset, edr_cost, rng
    ):
        from repro.service import QueryService

        plan = FaultPlan(rules=[FaultRule(shard=1, op="conn_drop", request=1)])
        with thread_nodes(2) as addresses:
            engine = remote_engine(
                vertex_dataset, edr_cost, addresses, fault_plan=plan
            )
            service = QueryService(engine, cache_size=8)
            try:
                service.query(
                    sample_query(vertex_dataset, rng, 6), tau_ratio=0.25
                )
                rendered = service.observability.registry.render()
                assert "repro_node_up" in rendered
                assert "repro_node_reconnects_total" in rendered
                for address in addresses:
                    assert f'node="{address}"' in rendered
                # The injected drop cost shard 1 exactly one reconnect.
                assert engine.status().restarts_total == 1
            finally:
                service.close(close_engine=True)

    def test_node_metrics_absent_on_local_backends(
        self, vertex_dataset, edr_cost, rng
    ):
        from repro.service import QueryService

        engine = PartitionedSubtrajectorySearch(
            vertex_dataset, edr_cost, num_shards=2, backend="processes"
        )
        service = QueryService(engine, cache_size=8)
        try:
            service.query(sample_query(vertex_dataset, rng, 6), tau_ratio=0.25)
            rendered = service.observability.registry.render()
            # No node addresses -> the node families stay out of local
            # scrapes entirely (no phantom node="None" series).
            assert "repro_node_up" not in rendered
            assert "repro_node_reconnects_total" not in rendered
        finally:
            service.close(close_engine=True)


# ---------------------------------------------------------------------------
# The per-call deadline (``remote_call_timeout`` is a node-link bound)
# ---------------------------------------------------------------------------


class TestCallDeadline:
    def test_conn_hang_unmasked_by_call_deadline(
        self, vertex_dataset, edr_cost, rng
    ):
        query = sample_query(vertex_dataset, rng, 6)
        single = SubtrajectorySearch(vertex_dataset, edr_cost)
        expected = keys(single.query(query, tau_ratio=0.25))
        # The insert routes to shard gid % 2 (gid = current dataset
        # length); pin the hang to whichever shard that is.
        target = len(vertex_dataset) % 2
        plan = FaultPlan(
            rules=[FaultRule(shard=target, op="conn_hang", request=1, on="add")]
        )
        with thread_nodes(2) as addresses:
            with remote_engine(
                vertex_dataset,
                edr_cost,
                addresses,
                fault_plan=plan,
                remote_call_timeout=3.0,
            ) as engine:
                # The first replicated add on the target shard vanishes
                # into the half-open link; only the call deadline unmasks
                # it.  The poisoned link is re-established and the insert
                # retried once on it, so it lands with its id.
                t0 = time.monotonic()
                gid = engine.add_trajectory(vertex_dataset[0])
                assert gid == len(vertex_dataset)
                assert time.monotonic() - t0 >= 3.0  # the deadline fired
                assert engine.status().restarts_total >= 1
                # Queries serve, the inserted copy of trajectory 0 included.
                result = engine.query(query, tau_ratio=0.25)
                twin = {(gid, s, e) for tid, s, e in expected if tid == 0}
                assert set(keys(result)) == set(expected) | twin


# ---------------------------------------------------------------------------
# Node loss: reconnect, journal replay
# ---------------------------------------------------------------------------


class TestNodeLoss:
    def test_node_kill_reconnects_and_replays_inserts(
        self, small_graph, edr_cost, trips
    ):
        ds = TrajectoryDataset(small_graph)
        for t in trips[:12]:
            ds.add(t)
        # Shard 0's node dies right after answering its second query (the
        # first lands below, after the insert).
        plan = FaultPlan(
            rules=[FaultRule(shard=0, op="kill_after", request=1, on="query")]
        )
        with process_nodes(2, restarts=2) as addresses:
            with remote_engine(ds, edr_cost, addresses, fault_plan=plan) as engine:
                gid = engine.add_trajectory(trips[12])  # gid 12 -> shard 0
                assert gid == 12
                query = list(trips[12].path[:6])
                before = engine.query(query, tau_ratio=0.25)  # node dies after
                assert any(m.trajectory_id == gid for m in before.matches)
                # Reconnect ships the snapshot, the journal replays the
                # insert past the handshake watermark: identical again.
                after = engine.query(query, tau_ratio=0.25)
                assert keys(after) == keys(before)
                assert engine.status().restarts_total == 1
                states = engine.status().workers
                assert all(s.alive for s in states)
                assert states[0].restarts == 1


# ---------------------------------------------------------------------------
# Acceptance: seeded mixed chaos, bit-identical, zero lost queries
# ---------------------------------------------------------------------------


class TestSeededChaos:
    QUERIES = 40

    def test_mixed_network_and_node_chaos_loses_nothing(
        self, vertex_dataset, edr_cost, rng
    ):
        plan = FaultPlan.network_chaos(
            seed=2026,
            num_shards=2,
            drops=2,
            hangs=1,
            slow=3,
            slow_ms=15.0,
            short_writes=2,
            kills=2,
            every=6,
        )
        # The schedule is a pure function of its arguments: every
        # disruption lands within the run (ordinal <= queries sent even
        # before retries shift anything).
        disruptions = {
            shard: sorted(plan.disruption_ordinals(shard)) for shard in (0, 1)
        }
        assert sum(len(v) for v in disruptions.values()) == 5
        assert all(o <= self.QUERIES for v in disruptions.values() for o in v)

        queries = [sample_query(vertex_dataset, rng, 6) for _ in range(self.QUERIES)]
        with PartitionedSubtrajectorySearch(
            vertex_dataset, edr_cost, num_shards=2, backend="serial"
        ) as undisturbed:
            expected = [
                keys(undisturbed.query(q, tau_ratio=0.25)) for q in queries
            ]

        with process_nodes(2, restarts=4) as addresses:
            with remote_engine(
                vertex_dataset, edr_cost, addresses, fault_plan=plan
            ) as engine:
                for i, query in enumerate(queries):
                    # Strict mode: a lost query would raise, not degrade.
                    result = engine.query(query, tau_ratio=0.25)
                    assert keys(result) == expected[i], f"query {i} diverged"
                    assert result.complete and result.degraded_shards == ()
                # Every disruption forced exactly one reconnect, each of
                # which replayed the journal to the handshake watermark.
                assert engine.status().restarts_total == 5
                states = engine.status().workers
                assert all(s.alive for s in states)
                assert [s.restarts for s in states] == [
                    len(disruptions[0]),
                    len(disruptions[1]),
                ]
