"""One fan-out, three backends: the contract of a partitioned query.

``PartitionedSubtrajectorySearch.query`` is the same three steps on
every backend — per-shard calls, run them, merge — so what a caller may
rely on is pinned here once and run over ``serial``, ``processes`` and
``remote``: exact answers, sibling cancellation that
leaves the links in sync, one engine shared by many client threads,
``allow_partial``, and ``close()`` under load.  What only a worker link
can do (retries, breakers, journals) stays in ``test_worker_links.py``.
"""

import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.core.engine import SubtrajectorySearch
from repro.core.partitioned import _BACKENDS
from repro.core.topk import topk_search
from repro.exceptions import (
    QueryError,
    ReproError,
    ShardUnavailableError,
    WorkerError,
)
from repro.faultinject import FaultPlan, FaultRule
from repro.obs.tracing import Trace
from tests.conftest import (
    GatedEDRCost,
    gate_events,
    needs_fork,
    open_engine,
    sample_query,
)

pytestmark = pytest.mark.timeout(300)

@pytest.fixture(params=_BACKENDS)
def backend(request):
    return request.param


@pytest.fixture()
def gated(backend, small_graph, vertex_dataset):
    """``(engine, gate, entered)``: two shards whose verification blocks
    while ``gate`` is clear, wherever the shard engines live."""
    with gate_events() as (gate, entered):
        try:
            with open_engine(
                backend,
                vertex_dataset,
                GatedEDRCost(small_graph, epsilon=60.0),
                start_method="fork",
            ) as engine:
                entered.clear()
                yield engine, gate, entered
        finally:
            gate.set()


@pytest.fixture()
def busy_query(vertex_dataset):
    """A query with several candidates on each of two shards, so a shard
    held at its first candidate still has a cancellation poll ahead."""
    return list(vertex_dataset.symbols(1))[:6]


def test_answers_match_a_single_engine(backend, vertex_dataset, edr_cost, rng):
    single = SubtrajectorySearch(vertex_dataset, edr_cost)
    with open_engine(backend, vertex_dataset, edr_cost, num_shards=3) as engine:
        for _ in range(3):
            query = sample_query(vertex_dataset, rng, 6)
            assert (
                engine.query(query, tau_ratio=0.25).matches
                == single.query(query, tau_ratio=0.25).matches
            )
            assert (
                engine.topk(query, 4).matches
                == topk_search(single, query, 4).matches
            )


@needs_fork
def test_first_failure_cancels_its_siblings_and_leaves_links_in_sync(
    backend, gated, vertex_dataset, edr_cost, busy_query, monkeypatch
):
    engine, gate, entered = gated
    concurrent = backend != "serial"
    expected = SubtrajectorySearch(vertex_dataset, edr_cost).query(
        busy_query, tau_ratio=0.25
    )
    boom = WorkerError("shard 0 is gone")
    shard_calls = engine.shard_query_callables

    def with_a_failing_shard_0(*args, **kwargs):
        def fail():
            if concurrent:  # fail while shard 1 is inside verification
                assert entered.wait(timeout=30.0), "shard 1 never got there"
            raise boom

        return [fail, *shard_calls(*args, **kwargs)[1:]]

    released = []

    def release_once_shard_1_was_cancelled():
        assert entered.wait(timeout=30.0)
        time.sleep(0.3)  # the trip / cancel frame lands while it is held
        released.append(time.monotonic())
        gate.set()

    monkeypatch.setattr(engine, "shard_query_callables", with_a_failing_shard_0)
    trace = Trace("test")
    if concurrent:
        gate.clear()
        releaser = threading.Thread(target=release_once_shard_1_was_cancelled)
        releaser.start()
    with pytest.raises(WorkerError) as failure:
        engine.query(busy_query, tau_ratio=0.25, trace=trace.root)
    # Shard 0's own error, not the cancellation it caused in shard 1.
    assert failure.value is boom
    shard_spans = [s for s in trace.export() if s["name"] == "shard"]
    if concurrent:
        releaser.join(30.0)
        assert time.monotonic() - released[0] < 5.0
        (span,) = shard_spans
        assert span["attributes"]["shard"] == 1
        assert span["attributes"]["error"] == "QueryCancelledError"
    else:
        assert shard_spans == []  # inline: shard 1 never started

    # Every request sent collected its one reply: the same engine answers
    # the next query correctly.
    monkeypatch.undo()
    assert engine.query(busy_query, tau_ratio=0.25).matches == expected.matches


def test_client_threads_share_one_engine(backend, vertex_dataset, edr_cost, rng):
    queries = [sample_query(vertex_dataset, rng, 6) for _ in range(20)]
    single = SubtrajectorySearch(vertex_dataset, edr_cost)
    expected = [single.query(q, tau_ratio=0.25).matches for q in queries]

    with open_engine(backend, vertex_dataset, edr_cost, num_shards=3) as engine:

        def client(offset):
            order = [(offset * 5 + i) % len(queries) for i in range(len(queries))]
            return [
                (i, engine.query(queries[i], tau_ratio=0.25).matches) for i in order
            ]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-4)
        try:
            with ThreadPoolExecutor(max_workers=4) as clients:
                answers = list(clients.map(client, range(4), timeout=240.0))
        finally:
            sys.setswitchinterval(interval)
    for answered in answers:
        assert len(answered) == len(queries)
        for i, matches in answered:
            assert matches == expected[i]


def test_allow_partial_degrades_worker_shards_only(
    backend, vertex_dataset, edr_cost, rng
):
    query = sample_query(vertex_dataset, rng, 6)
    full = SubtrajectorySearch(vertex_dataset, edr_cost).query(query, tau_ratio=0.25)

    def held_down(*shards):
        if backend == "serial":
            return {}  # nothing in-process can die on its own
        return {
            "fault_plan": FaultPlan(
                rules=[FaultRule(shard=s, op="conn_drop", request=0) for s in shards]
            )
        }

    with open_engine(
        backend, vertex_dataset, edr_cost, num_shards=3, **held_down(1)
    ) as engine:
        result = engine.query(query, tau_ratio=0.25, allow_partial=True)
        if backend == "serial":
            assert result.complete and result.degraded_shards == ()
            assert result.matches == full.matches
            return
        assert not result.complete and result.degraded_shards == (1,)
        assert result.matches == [
            m for m in full.matches if m.trajectory_id % 3 != 1
        ]
    with open_engine(
        backend, vertex_dataset, edr_cost, num_shards=3, **held_down(0, 1, 2)
    ) as engine:
        with pytest.raises(ShardUnavailableError):
            engine.query(query, tau_ratio=0.25, allow_partial=True)


@needs_fork
def test_close_with_a_query_in_flight(backend, gated, busy_query):
    engine, gate, entered = gated
    outcome = []

    def client():
        try:
            outcome.append(engine.query(busy_query, tau_ratio=0.25))
        except BaseException as exc:  # noqa: BLE001 — the assertion below
            outcome.append(exc)

    gate.clear()
    querying = threading.Thread(target=client)
    querying.start()
    assert entered.wait(timeout=30.0), "query never reached verification"
    closing = threading.Thread(target=engine.close)
    closing.start()
    time.sleep(0.3)  # close() has cancelled the query while it is held
    gate.set()
    closing.join(15.0)
    querying.join(15.0)
    assert not closing.is_alive(), "close() hung behind the query"
    assert not querying.is_alive(), "the query hung behind close()"
    assert isinstance(outcome[0], ReproError), outcome
    with pytest.raises(QueryError):
        engine.query(busy_query, tau_ratio=0.25)
