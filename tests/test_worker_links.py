"""One handle, two links: the contract every shard-worker link honours.

A shard worker is reached through a framed link that is either one end
of a socketpair to a child process (``backend="processes"``) or a TCP
connection to a worker node (``backend="remote"``).  How the link is
*obtained* is the only per-backend code, so everything else is pinned
here once and run over both: the handle's request/reply rules, the
network-fault drills, replication, lifecycle, and the bounded insert
journal.  What only one link can do stays with its suite (process
kills and stop escalation in ``test_fault_tolerance.py``, node kills and
call deadlines in ``test_remote_workers.py``).
"""

import multiprocessing as mp
import os
import signal
import subprocess
import sys
import textwrap
import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from functools import partial

import pytest

from repro.core import supervision, workers
from repro.core.cancellation import CancelToken
from repro.core.engine import SubtrajectorySearch
from repro.core.partitioned import _BACKENDS, PartitionedSubtrajectorySearch
from repro.distance.costs import EDRCost
from repro.exceptions import (
    QueryCancelledError,
    QueryError,
    ServiceError,
    TransportError,
    WorkerError,
)
from repro.faultinject import FaultPlan, FaultRule
from repro.trajectory.dataset import TrajectoryDataset
from tests.conftest import (
    GatedEDRCost,
    gate_events,
    needs_fork,
    open_engine,
    sample_query,
    thread_nodes,
)

pytestmark = pytest.mark.timeout(300)

def keys(result):
    return [(m.trajectory_id, m.start, m.end) for m in result.matches]


@pytest.fixture(params=["processes", "remote"])
def link(request):
    return request.param


@contextmanager
def open_handle(link, dataset, costs, *, faults=(), call_timeout=None):
    """One bare parent-side handle over ``link`` (no pool, no supervisor),
    with ``faults`` (fault rules for shard 0) injected."""
    with thread_nodes(1 if link == "remote" else 0) as addresses:
        if link == "processes":
            # fork, so gate_events() reach the child by inheritance
            opener = partial(workers._open_process, mp.get_context("fork"))
            node, budget = None, 0.0
        else:
            node, budget = addresses[0], 15.0
            opener = partial(workers._open_node, node, budget)
        handle = workers._ShardWorker(
            0, opener, node, dataset, costs, {}, FaultPlan(rules=list(faults)),
            open_budget=budget, call_timeout=call_timeout,
        )
        try:
            yield handle
        finally:
            handle.stop()


def reopen(handle):
    assert handle.revive(blocking=True, force=True)


@contextmanager
def in_flight(handle, payload, token=None):
    """A query sent from a helper thread (the handle's round trip is one
    blocking call): yields its future, and never leaks the thread."""
    with ThreadPoolExecutor(max_workers=1) as pool:
        yield pool.submit(handle.call, "query", payload, token)


@pytest.fixture()
def gated(link, small_graph, vertex_dataset):
    """``(handle, gate, entered)``: a handle whose worker blocks in
    verification while ``gate`` is clear."""
    with gate_events() as (gate, entered):
        try:
            with open_handle(
                link, vertex_dataset, GatedEDRCost(small_graph, epsilon=60.0)
            ) as handle:
                yield handle, gate, entered
        finally:
            gate.set()


def query_payload(query):
    return (list(query), {"tau_ratio": 0.25}, None, None)


class UnshippableFailureCost(EDRCost):
    """An engine bug whose exception cannot cross the link: the class is
    local to the call that raises it, so no pickle can name it."""

    name = "unshippable-failure"

    def neighbors(self, q):
        class EngineBug(Exception):
            pass

        raise EngineBug("neighborhood lookup exploded")


# ---------------------------------------------------------------------------
# The handle's request/reply contract
# ---------------------------------------------------------------------------


class TestHandleContract:
    def test_reply_id_desync_tears_the_link_down(
        self, link, vertex_dataset, edr_cost
    ):
        with open_handle(link, vertex_dataset, edr_cost) as handle:
            # A rogue frame: its reply answers no request the handle made.
            handle._conn.send(("ping", 10_000))
            with pytest.raises(WorkerError, match="desynchronized"):
                handle.call("stats", ())
            assert not handle.alive  # never reused: framing is lost
            reopen(handle)
            assert handle.alive and handle.restarts == 1
            assert handle.call("ping", ())["pid"] == handle.pid

    def test_late_reply_poisons_the_link_and_the_next_call_reopens(
        self, link, vertex_dataset, edr_cost
    ):
        faults = [FaultRule(shard=0, op="delay_reply", request=1, on="add", seconds=1.0)]
        insert = (len(vertex_dataset), vertex_dataset[0], False)
        with open_handle(
            link, vertex_dataset, edr_cost, faults=faults, call_timeout=0.2
        ) as handle:
            t0 = time.monotonic()
            with pytest.raises(TransportError, match="deadline"):
                handle.call("add", insert)
            assert time.monotonic() - t0 < 0.9  # the budget, not the delay
            assert not handle.alive  # a late reply must find no reader
            reopen(handle)
            # Fresh incarnation from the mirror: the same id is free again
            # (and ordinal 2 carries no delay).
            assert handle.call("add", insert) == len(vertex_dataset)

    def test_unencodable_error_is_one_worker_error_and_the_worker_stays_up(
        self, link, small_graph, vertex_dataset, rng
    ):
        costs = UnshippableFailureCost(small_graph, epsilon=60.0)
        with open_handle(link, vertex_dataset, costs) as handle:
            pid = handle.pid
            with pytest.raises(WorkerError, match="EngineBug.*exploded") as excinfo:
                handle.call("query", query_payload(sample_query(vertex_dataset, rng, 6)))
            assert not isinstance(excinfo.value, TransportError)  # relayed, not a torn link
            # The fallback was the request's one reply: same worker, same
            # incarnation, stream still in sync.
            assert handle.alive and handle.restarts == 0
            assert handle.call("ping", ())["pid"] == pid == handle.pid

    def test_unknown_message_kind_is_one_relayed_worker_error(
        self, link, vertex_dataset, edr_cost
    ):
        with open_handle(link, vertex_dataset, edr_cost) as handle:
            with pytest.raises(WorkerError, match="unknown message kind 'frobnicate'"):
                handle.call("frobnicate", ())
            assert handle.alive and handle.restarts == 0
            assert handle.call("ping", ())["pid"] == handle.pid

    @needs_fork
    def test_cancel_frame_stops_verification_and_the_reply_still_arrives(
        self, gated, vertex_dataset, rng
    ):
        handle, gate, entered = gated
        gate.clear()
        token = CancelToken()
        payload = query_payload(sample_query(vertex_dataset, rng, 6))
        with in_flight(handle, payload, token) as reply:
            assert entered.wait(timeout=30.0), "query never reached verification"
            token.cancel()  # the waiting round trip turns it into a cancel frame
            time.sleep(0.2)  # let the worker's reader thread fold the frame in
            gate.set()
            # The engine's next token poll sees the watermark: the query is
            # abandoned, and its one reply is the cancellation.
            with pytest.raises(QueryCancelledError):
                reply.result(timeout=30.0)
        # One reply per request held: the stream is still in sync.
        assert handle.alive and handle.restarts == 0
        assert handle.call("ping", ())["pid"] == handle.pid

    @needs_fork
    def test_try_call_returns_none_while_a_request_is_in_flight(
        self, gated, vertex_dataset, rng
    ):
        handle, gate, entered = gated
        gate.clear()
        payload = query_payload(sample_query(vertex_dataset, rng, 6))
        with in_flight(handle, payload) as reply:
            assert entered.wait(timeout=30.0), "query never reached verification"
            t0 = time.monotonic()
            assert handle.probe("stats") is None
            assert time.monotonic() - t0 < 1.0, "probe queued behind the query"
            gate.set()
            assert reply.result(timeout=30.0).matches is not None
        assert handle.probe("stats").trie is not None


@needs_fork
def test_process_killed_mid_request_is_a_worker_error(
    small_graph, vertex_dataset, rng
):
    with gate_events() as (gate, entered), open_handle(
        "processes", vertex_dataset, GatedEDRCost(small_graph, epsilon=60.0)
    ) as handle:
        gate.clear()
        payload = query_payload(sample_query(vertex_dataset, rng, 6))
        with in_flight(handle, payload) as reply:
            assert entered.wait(timeout=30.0)
            # (The gate dies with the worker: a process killed inside
            # Event.wait() leaves the event unusable, so it is never set
            # again — the handle's stop() reaps whatever is left.)
            os.kill(handle.pid, signal.SIGKILL)
            with pytest.raises(WorkerError):
                reply.result(timeout=5.0)
        assert not handle.alive


# ---------------------------------------------------------------------------
# Link faults: the same drills, whatever the link
# ---------------------------------------------------------------------------


class TestLinkFaults:
    def test_conn_drop_mid_request_is_retried_once_bit_identically(
        self, link, vertex_dataset, edr_cost, rng
    ):
        query = sample_query(vertex_dataset, rng, 6)
        expected = keys(
            SubtrajectorySearch(vertex_dataset, edr_cost).query(query, tau_ratio=0.25)
        )
        plan = FaultPlan(rules=[FaultRule(shard=0, op="conn_drop", request=2)])
        with open_engine(link, vertex_dataset, edr_cost, fault_plan=plan) as engine:
            for _ in range(3):  # request 2 loses its reply in flight
                result = engine.query(query, tau_ratio=0.25)
                assert keys(result) == expected
                assert result.complete
            assert engine.status().restarts_total == 1

    def test_conn_hang_without_deadline_fails_fast_and_recovers(
        self, link, vertex_dataset, edr_cost, rng
    ):
        # A half-open link with no per-call deadline is unmasked
        # deterministically (the injected hang marks the socket), not by
        # waiting forever.
        query = sample_query(vertex_dataset, rng, 6)
        expected = keys(
            SubtrajectorySearch(vertex_dataset, edr_cost).query(query, tau_ratio=0.25)
        )
        plan = FaultPlan(rules=[FaultRule(shard=1, op="conn_hang", request=1)])
        with open_engine(link, vertex_dataset, edr_cost, fault_plan=plan) as engine:
            t0 = time.monotonic()
            assert keys(engine.query(query, tau_ratio=0.25)) == expected
            assert time.monotonic() - t0 < 60.0
            assert engine.status().restarts_total == 1

    def test_slow_links_and_short_writes_are_benign(
        self, link, vertex_dataset, edr_cost, rng
    ):
        query = sample_query(vertex_dataset, rng, 6)
        expected = keys(
            SubtrajectorySearch(vertex_dataset, edr_cost).query(query, tau_ratio=0.25)
        )
        plan = FaultPlan(
            rules=[
                FaultRule(shard=0, op="slow_link_ms", request=1, ms=30.0),
                FaultRule(shard=1, op="short_write", request=2),
            ]
        )
        with open_engine(link, vertex_dataset, edr_cost, fault_plan=plan) as engine:
            for _ in range(3):
                assert keys(engine.query(query, tau_ratio=0.25)) == expected
            # Latency and fragmentation never cost a link.
            assert engine.status().restarts_total == 0

    def test_held_down_link_strict_fails_loudly(
        self, link, vertex_dataset, edr_cost, rng
    ):
        # Every send to shard 1 tears the link down: the shard never
        # answers, reopens notwithstanding.
        plan = FaultPlan(rules=[FaultRule(shard=1, op="conn_drop", request=0)])
        with open_engine(
            link, vertex_dataset, edr_cost, num_shards=3, fault_plan=plan
        ) as engine:
            with pytest.raises(WorkerError):
                engine.query(sample_query(vertex_dataset, rng, 6), tau_ratio=0.25)

    def test_held_down_link_degrades_and_opens_breaker(
        self, link, vertex_dataset, edr_cost, rng, monkeypatch
    ):
        monkeypatch.setattr(supervision, "BREAKER_FAILURES", 2)
        monkeypatch.setattr(supervision, "BREAKER_COOLDOWN", 30.0)
        query = sample_query(vertex_dataset, rng, 6)
        with PartitionedSubtrajectorySearch(
            vertex_dataset, edr_cost, num_shards=3, backend="serial"
        ) as undisturbed:
            full = undisturbed.query(query, tau_ratio=0.25)
        plan = FaultPlan(rules=[FaultRule(shard=1, op="conn_drop", request=0)])
        with open_engine(
            link, vertex_dataset, edr_cost, num_shards=3, fault_plan=plan
        ) as engine:
            partial_result = engine.query(query, tau_ratio=0.25, allow_partial=True)
            assert not partial_result.complete
            assert partial_result.degraded_shards == (1,)
            # Round-robin layout: the live shards' answer is the full
            # answer minus shard 1's trajectories.
            expected = [m for m in full.matches if m.trajectory_id % 3 != 1]
            assert keys(partial_result) == [
                (m.trajectory_id, m.start, m.end) for m in expected
            ]
            # The failed attempt and its retry opened the breaker
            # (threshold 2); Retry-After now has a basis.
            states = engine.status().workers
            assert states[1].breaker == "open"
            assert engine.status().retry_after > 0.0
            assert states[1].to_dict()["retry_after"] > 0.0


# ---------------------------------------------------------------------------
# Replication, journal, lifecycle
# ---------------------------------------------------------------------------


class TestReplicationAndLifecycle:
    def test_online_inserts_match_a_rebuilt_engine(
        self, link, small_graph, edr_cost, trips
    ):
        ds = TrajectoryDataset(small_graph)
        for t in trips[:10]:
            ds.add(t)
        with open_engine(link, ds, edr_cost) as sharded:
            for offset, t in enumerate(trips[10:16]):
                assert sharded.add_trajectory(t) == 10 + offset
            assert len(sharded) == 16
            full = TrajectoryDataset(small_graph)
            for t in trips[:16]:
                full.add(t)
            rebuilt = SubtrajectorySearch(full, edr_cost)
            query = list(trips[12].path[:6])
            assert keys(sharded.query(query, tau_ratio=0.25)) == keys(
                rebuilt.query(query, tau_ratio=0.25)
            )

    def test_insert_journal_stays_bounded(self, link, small_graph, edr_cost, trips):
        # The journal only has to cover inserts the dataset mirror does
        # not hold yet; everything older is rebuilt from the mirror on
        # respawn and must not pile up.
        ds = TrajectoryDataset(small_graph)
        for t in trips[:4]:
            ds.add(t)
        with open_engine(link, ds, edr_cost) as engine:
            for i in range(200):
                engine.add_trajectory(trips[i % len(trips)])
            assert len(engine) == 204
            assert [len(w.journal) for w in engine._workers._workers] == [1, 1]

    def test_close_is_idempotent_and_final(self, link, vertex_dataset, edr_cost, rng):
        with open_engine(link, vertex_dataset, edr_cost) as engine:
            pool = engine._workers
            assert pool in workers._LIVE_POOLS
            engine.close()
            engine.close()  # second close is a no-op, not an error
            assert pool.closed
            assert not any(worker.alive for worker in pool._workers)
            assert pool not in workers._LIVE_POOLS
            with pytest.raises(QueryError):
                engine.query(sample_query(vertex_dataset, rng, 6), tau_ratio=0.25)
            # The pool itself reports closure as a worker failure.
            with pytest.raises(ServiceError):
                pool.query_shard(0, [0], {})

    def test_worker_states_snapshot(self, link, vertex_dataset, edr_cost):
        with open_engine(link, vertex_dataset, edr_cost) as engine:
            status = engine.status()
            states = status.workers
            assert [s.shard for s in states] == [0, 1]
            assert all(s.alive and s.breaker == "closed" for s in states)
            assert all(s.pid for s in states)
            assert [s.node for s in states] == status.nodes
            assert all((n is None) == (link == "processes") for n in status.nodes)
            d = states[0].to_dict()
            assert {"shard", "alive", "pid", "restarts", "breaker"} <= set(d)
            assert d.get("node") == status.nodes[0]


# ---------------------------------------------------------------------------
# The supervised shard: one home for per-shard state, one fault policy
# ---------------------------------------------------------------------------


def assert_figures_are_projections(engine):
    """The engine-level figures are sums / minima over the snapshot's own
    worker states.  Returns the snapshot."""
    status = engine.status()
    states = status.workers
    assert [s.shard for s in states] == list(range(len(status.shards)))
    assert status.restarts_total == sum(s.restarts for s in states)
    assert status.nodes == [s.node for s in states]
    assert status.degraded_shards == [
        s.shard for s in states if not s.alive or s.breaker != "closed"
    ]
    open_waits = [s.retry_after for s in states if s.breaker == "open"]
    assert status.retry_after == min(open_waits, default=0.0)
    return status


@pytest.mark.parametrize("backend", _BACKENDS)
def test_engine_figures_are_projections_of_worker_states(
    backend, vertex_dataset, edr_cost
):
    with open_engine(backend, vertex_dataset, edr_cost) as engine:
        status = assert_figures_are_projections(engine)
        assert status.restarts_total == 0 and status.retry_after == 0.0
        assert all(s.breaker == "closed" for s in status.workers)


#: shard 1 held down: killed before every query and never respawned — or,
#: where the worker is an in-thread node a kill would take pytest with it,
#: its link torn down on every send.
HELD_DOWN = {
    "processes": [
        FaultRule(shard=1, op="kill_before", request=0),
        FaultRule(shard=1, op="fail_respawn", count=10_000),
    ],
    "remote": [FaultRule(shard=1, op="conn_drop", request=0)],
}


def test_figures_stay_projections_once_a_breaker_is_open(
    link, vertex_dataset, edr_cost, rng, monkeypatch
):
    monkeypatch.setattr(supervision, "BREAKER_FAILURES", 1)
    monkeypatch.setattr(supervision, "BREAKER_COOLDOWN", 60.0)
    plan = FaultPlan(rules=HELD_DOWN[link], seed=7)
    with open_engine(link, vertex_dataset, edr_cost, fault_plan=plan) as engine:
        result = engine.query(
            sample_query(vertex_dataset, rng, 6), tau_ratio=0.25, allow_partial=True
        )
        assert result.degraded_shards == (1,)
        status = assert_figures_are_projections(engine)
        assert [s.breaker for s in status.workers] == ["closed", "open"]
        assert status.degraded_shards == [1]
        assert 0.0 < status.retry_after <= 60.0


def test_a_failed_insert_is_recorded_exactly_like_a_failed_query(
    link, vertex_dataset, edr_cost, rng, monkeypatch
):
    # One policy: whichever request trips over the dead link, the shard's
    # breaker, last error and event ring tell the same story.  Nothing
    # revives the shards to tidy the evidence away: the supervisor never
    # ticks, and the insert and the query are one bare call each (the
    # shard's own add and query would revive and retry).
    monkeypatch.setattr(workers, "_SUPERVISOR_POLL", 3600.0)
    insert_shard = len(vertex_dataset) % 2
    query_shard = 1 - insert_shard
    plan = FaultPlan(
        rules=[
            FaultRule(shard=insert_shard, op="conn_drop", request=1, on="add"),
            FaultRule(shard=query_shard, op="conn_drop", request=1, on="query"),
        ]
    )
    with open_engine(link, vertex_dataset, edr_cost, fault_plan=plan) as engine:
        local_id = len(engine._shards[insert_shard])
        with pytest.raises(WorkerError):
            engine._workers._workers[insert_shard].call(
                "add", (local_id, vertex_dataset[0], False)
            )
        with pytest.raises(WorkerError):
            engine._workers._workers[query_shard].call(
                "query", query_payload(sample_query(vertex_dataset, rng, 6))
            )
        states = engine.status().workers
        by_insert, by_query = states[insert_shard], states[query_shard]
        assert by_insert.consecutive_failures == by_query.consecutive_failures == 1
        assert by_insert.breaker == by_query.breaker == "closed"  # 1 of 3
        assert by_insert.last_error and by_insert.last_error == by_query.last_error
        assert by_insert.events[-1].startswith("add failed: ")
        assert by_query.events[-1].startswith("query failed: ")
        assert (
            by_insert.events[-1].split(": ")[1] == by_query.events[-1].split(": ")[1]
        )
        assert len(engine._shards[insert_shard]) == local_id  # nothing mirrored


def test_an_error_the_worker_replied_with_respawns_nothing(
    link, small_graph, vertex_dataset, rng
):
    # An engine bug that cannot cross the link comes back as the worker's
    # own reply (a WorkerError naming it): the link is up and the worker
    # healthy, so nothing is respawned or retried.  Each shard records the
    # one failure — a second such query must not open every breaker.
    costs = UnshippableFailureCost(small_graph, epsilon=60.0)
    query = sample_query(vertex_dataset, rng, 6)
    with open_engine(link, vertex_dataset, costs) as engine:
        pids = [s.pid for s in engine.status().workers]
        # Shard by shard: in a fan-out the first failure cancels the rest.
        for call in engine.shard_query_callables(query, tau_ratio=0.25):
            with pytest.raises(WorkerError, match="EngineBug.*exploded"):
                call()
        status = engine.status()
        assert status.restarts_total == 0
        assert [s.pid for s in status.workers] == pids
        assert [s.consecutive_failures for s in status.workers] == [1, 1]
        assert all(s.alive and s.breaker == "closed" for s in status.workers)


# ---------------------------------------------------------------------------
# Orphans: a worker never outlives a SIGKILLed parent
# ---------------------------------------------------------------------------

_ORPHAN_PARENT = textwrap.dedent(
    """
    import sys, time
    from repro.core.partitioned import PartitionedSubtrajectorySearch
    from repro.distance.costs import LevenshteinCost
    from repro.network.generators import grid_city
    from repro.trajectory.dataset import TrajectoryDataset
    from repro.trajectory.generator import TripGenerator

    def main():
        graph = grid_city(5, 5, seed=1)
        dataset = TrajectoryDataset(graph, "vertex")
        dataset.extend(TripGenerator(graph, seed=2).generate(8, min_length=5, max_length=10))
        engine = PartitionedSubtrajectorySearch(
            dataset, LevenshteinCost(), num_shards=2, backend="processes",
            start_method=sys.argv[1],
        )
        print(*(s.pid for s in engine.status().workers), flush=True)
        time.sleep(120)

    if __name__ == "__main__":
        main()
    """
)


def _gone(pid):
    """No such process, or only its zombie (nothing here reaps orphans)."""
    try:
        with open(f"/proc/{pid}/stat") as handle:
            return handle.read().rsplit(")", 1)[1].split()[0] == "Z"
    except OSError:
        return True


@pytest.mark.skipif(not os.path.isdir("/proc/self"), reason="needs /proc")
@pytest.mark.parametrize(
    "start_method", [m for m in ("fork", "spawn") if m in mp.get_all_start_methods()]
)
def test_workers_exit_when_their_parent_is_sigkilled(tmp_path, start_method):
    # Under fork every shard child inherits the parent's end of its own
    # link and of every earlier shard's, so the parent's death is no EOF;
    # daemon=True and atexit only cover orderly exits.
    script = tmp_path / "orphan_parent.py"
    script.write_text(_ORPHAN_PARENT)
    src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
    parent = subprocess.Popen(
        [sys.executable, str(script), start_method],
        stdout=subprocess.PIPE,
        env={**os.environ, "PYTHONPATH": src},
        text=True,
    )
    pids = []
    try:
        pids = [int(p) for p in parent.stdout.readline().split()]
        assert len(pids) == 2 and not any(_gone(p) for p in pids)
        parent.kill()
        parent.wait(10)
        deadline = time.monotonic() + 5.0
        while not all(_gone(p) for p in pids) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert [p for p in pids if not _gone(p)] == [], "orphaned shard workers"
    finally:
        parent.kill()
        parent.wait(10)
        parent.stdout.close()
        for pid in pids:
            if not _gone(pid):
                os.kill(pid, signal.SIGKILL)
