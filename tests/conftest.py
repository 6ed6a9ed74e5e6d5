"""Shared fixtures: small deterministic graphs, datasets, and cost models."""

from __future__ import annotations

import faulthandler
import importlib.util
import multiprocessing as mp
import os
import random
import re
import signal
import threading
from contextlib import contextmanager

import pytest
from hypothesis import settings

from repro.distance.costs import (
    EDRCost,
    ERPCost,
    LevenshteinCost,
    NetEDRCost,
    NetERPCost,
    SURSCost,
)
from repro.core import wedkernel
from repro.distance.smith_waterman import all_matches, best_match
from repro.distance.wed import wed
from repro.network.generators import grid_city
from repro.network.graph import RoadNetwork
from repro.trajectory.dataset import TrajectoryDataset
from repro.trajectory.generator import TripGenerator


if importlib.util.find_spec("pytest_timeout") is None:
    # pytest-timeout is not installed: without it ``timeout = 120`` in
    # pyproject.toml and the ``timeout`` marker are inert, and one wedged
    # worker test hangs the whole run.  Stand in with a per-test
    # faulthandler watchdog: past the limit it dumps every thread's stack
    # to the real stderr and exits the run.  With the plugin present this
    # block does nothing — the plugin owns the ini key and the marker.
    _WATCHDOG_FD = pytest.StashKey[int]()

    def pytest_addoption(parser):
        parser.addini(
            "timeout",
            "per-test time limit in seconds (faulthandler watchdog; "
            "pytest-timeout is not installed)",
            default="0",
        )

    def pytest_configure(config):
        # Capture is suspended while plugins configure, so fd 2 is still
        # the terminal here; during a test it is a capture file.
        config.stash[_WATCHDOG_FD] = os.dup(2)

    def pytest_unconfigure(config):
        if _WATCHDOG_FD in config.stash:
            os.close(config.stash[_WATCHDOG_FD])
            del config.stash[_WATCHDOG_FD]

    @pytest.hookimpl(wrapper=True)
    def pytest_runtest_protocol(item):
        marker = item.get_closest_marker("timeout")
        limit = float(
            marker.args[0]
            if marker is not None and marker.args
            else item.config.getini("timeout") or 0
        )
        if limit <= 0:
            return (yield)
        faulthandler.dump_traceback_later(
            limit, file=item.config.stash[_WATCHDOG_FD], exit=True
        )
        try:
            return (yield)
        finally:
            faulthandler.cancel_dump_traceback_later()


#: the deep run of the history state machine (tests/test_history.py),
#: selected with ``--hypothesis-profile=history``; tier-1 runs a short
#: cut of the same machine under the default profile.
settings.register_profile(
    "history", max_examples=200, stateful_step_count=60, deadline=None
)


@pytest.fixture(scope="session")
def small_graph() -> RoadNetwork:
    """An 8x8 jittered grid (about 64 vertices, 200+ edges)."""
    return grid_city(8, 8, seed=42)


@pytest.fixture(scope="session")
def line_graph() -> RoadNetwork:
    """A bidirectional 6-vertex line: simple hand-checkable topology."""
    g = RoadNetwork()
    for i in range(6):
        g.add_vertex((float(i), 0.0))
    for i in range(5):
        g.add_edge(i, i + 1, 1.0)
        g.add_edge(i + 1, i, 1.0)
    return g


@pytest.fixture(scope="session")
def trips(small_graph):
    gen = TripGenerator(small_graph, seed=7)
    return gen.generate(30, min_length=5, max_length=30)


@pytest.fixture(scope="session")
def vertex_dataset(small_graph, trips) -> TrajectoryDataset:
    ds = TrajectoryDataset(small_graph, "vertex")
    ds.extend(trips)
    return ds


@pytest.fixture(scope="session")
def edge_dataset(small_graph, trips) -> TrajectoryDataset:
    ds = TrajectoryDataset(small_graph, "edge")
    ds.extend(trips)
    return ds


@pytest.fixture(scope="session")
def lev_cost() -> LevenshteinCost:
    return LevenshteinCost()


@pytest.fixture(scope="session")
def edr_cost(small_graph) -> EDRCost:
    return EDRCost(small_graph, epsilon=60.0)


@pytest.fixture(scope="session")
def erp_cost(small_graph) -> ERPCost:
    return ERPCost(small_graph, eta=25.0)


@pytest.fixture(scope="session")
def netedr_cost(small_graph) -> NetEDRCost:
    return NetEDRCost(small_graph)


@pytest.fixture(scope="session")
def neterp_cost(small_graph) -> NetERPCost:
    return NetERPCost(small_graph, g_del=250.0)


@pytest.fixture(scope="session")
def surs_cost(small_graph) -> SURSCost:
    return SURSCost(small_graph)


@pytest.fixture()
def rng() -> random.Random:
    return random.Random(12345)


def sample_query(dataset: TrajectoryDataset, rng: random.Random, length: int):
    """A random subtrajectory of a random (long-enough) trajectory."""
    eligible = [
        tid for tid in range(len(dataset)) if len(dataset.symbols(tid)) >= length
    ]
    tid = rng.choice(eligible)
    symbols = dataset.symbols(tid)
    s = rng.randrange(0, len(symbols) - length + 1)
    return list(symbols[s : s + length])


# -- the brute-force oracles every exactness suite compares against ---------


def _symbol_strings(corpus):
    """Each trajectory's symbol string, by id: ``corpus`` is a dataset or
    already a list of symbol strings."""
    if isinstance(corpus, TrajectoryDataset):
        return [corpus.symbols(tid) for tid in range(len(corpus))]
    return corpus


def oracle_range(corpus, query, costs, tau):
    """The range answer as ``{(tid, start, end)}``: every subtrajectory
    within WED ``tau`` of ``query``, by one full Smith–Waterman pass
    (``distance.smith_waterman.all_matches``) per trajectory."""
    return {
        (tid, s, t)
        for tid, data in enumerate(_symbol_strings(corpus))
        for s, t, _ in all_matches(data, query, costs, tau)
    }


def oracle_topk(corpus, query, costs, k, *, tids=None):
    """The top-k ranking as ``[(tid, distance)]``, best first: each
    trajectory's best substring (``best_match``), ranked by distance
    then id.  A trajectory's best *distance* is unique even when several
    windows achieve it, so the oracle pins the ranking, not the windows.
    ``tids`` restricts the ranking to those trajectories."""
    strings = _symbol_strings(corpus)
    ranked = []
    for tid in range(len(strings)) if tids is None else tids:
        s, t, d = best_match(strings[tid], query, costs)
        if t >= s:
            ranked.append((d, tid))
    ranked.sort()
    return [(tid, d) for d, tid in ranked[:k]]


def brute_all(data, query, costs, tau):
    """Every ``(start, end, distance)`` of one symbol string with WED
    below ``tau``, in ``(start, end)`` order — an exhaustive ``wed`` per
    substring, independent of the Smith–Waterman code it checks."""
    return [
        (s, t, d)
        for s in range(len(data))
        for t in range(s, len(data))
        if (d := wed(data[s : t + 1], query, costs)) < tau
    ]


#: the two request kinds the service tier serves through one path; the
#: request-path contract is pinned once, parametrized over these.
KINDS = ("range", "topk")


def ask(target, kind, query, **kwargs):
    """One request of ``kind`` through ``target`` — a ``QueryService`` or
    an ``Executor`` (same method names): a tau_ratio-0.25 range query or
    a top-3 query."""
    if kind == "topk":
        return target.topk(query, 3, **kwargs)
    return target.query(query, tau_ratio=0.25, **kwargs)


def samples_of(rendered: str, family: str) -> dict:
    """``{label-string: value}`` of one family in a ``/metrics`` page
    (``""`` keys an unlabelled sample)."""
    pattern = rf"^{re.escape(family)}(\{{[^}}]*\}})? (\S+)$"
    return {
        labels: float(value)
        for labels, value in re.findall(pattern, rendered, re.M)
    }


@pytest.fixture()
def private_dataset(small_graph, vertex_dataset) -> TrajectoryDataset:
    """A per-test copy of the shared dataset, for tests that insert."""
    ds = TrajectoryDataset(small_graph, "vertex")
    ds.extend(list(vertex_dataset))
    return ds


@contextmanager
def thread_nodes(count):
    """``count`` in-thread worker nodes on ephemeral ports (the remote
    backend's cheap arrangement — safe as long as no worker-side kill
    rule ships to them: ``os._exit`` in-process would take pytest down)."""
    from repro.core.remote import WorkerNodeServer

    servers, threads = [], []
    for _ in range(count):
        server = WorkerNodeServer("127.0.0.1", 0)
        thread = threading.Thread(
            target=server.serve_forever, name="repro-test-node", daemon=True
        )
        thread.start()
        servers.append(server)
        threads.append(thread)
    try:
        yield [s.address for s in servers]
    finally:
        for server in servers:
            server.close()
        # Leaked acceptor threads would flip default_start_method() to
        # "spawn" for every later test in the run.
        for thread in threads:
            thread.join(10)


@contextmanager
def open_engine(backend, dataset, costs, *, num_shards=2, **kwargs):
    """A partitioned engine on ``backend`` — ``remote`` over
    :func:`thread_nodes`, so every backend is one arrangement."""
    from repro.core.partitioned import PartitionedSubtrajectorySearch

    with thread_nodes(num_shards if backend == "remote" else 0) as addresses:
        if backend == "remote":
            kwargs.update(shard_map=addresses, connect_timeout=15.0)
        else:
            kwargs.update(num_shards=num_shards)
        with PartitionedSubtrajectorySearch(
            dataset, costs, backend=backend, **kwargs
        ) as engine:
            yield engine


def worker_process(pid):
    """The ``multiprocessing.Process`` behind a child-process shard
    worker, found by the pid ``status().workers`` reports (fetch it while
    the worker lives: ``active_children`` forgets the dead)."""
    return next(p for p in mp.active_children() if p.pid == pid)


def kill_worker(pid):
    """SIGKILL a child-process shard worker by pid and reap it; returns
    its ``Process`` (for ``exitcode``)."""
    process = worker_process(pid)
    os.kill(pid, signal.SIGKILL)
    process.join(5)
    assert not process.is_alive()
    return process


#: gate events reach a child-process worker by fork inheritance only.
needs_fork = pytest.mark.skipif(
    "fork" not in mp.get_all_start_methods(),
    reason="gate events reach the worker by fork inheritance",
)

#: name -> (gate, entered) events of the gated cost models alive right
#: now.  Module-level so both peers find them: a forked child inherits
#: the dict, an in-thread node shares it, and the cost model itself
#: stays picklable for a node's hello.
GATES = {}


class GatedEDRCost(EDRCost):
    """An EDRCost whose substitution rows block on a named gate — the
    only reliable way to hold a request *inside* a worker's verification
    phase while a test probes, cancels or kills around it."""

    name = "gated-edr"
    gate_name = "gated-edr"

    def _block(self):
        gate, entered = GATES[self.gate_name]
        entered.set()
        if not gate.wait(timeout=60.0):
            raise RuntimeError("gate never released")

    def sub(self, a, b):
        self._block()
        return super().sub(a, b)

    def sub_row(self, p, seq):
        self._block()
        return super().sub_row(p, seq)


@contextmanager
def gate_events():
    """``(gate, entered)`` registered for :class:`GatedEDRCost`: workers
    started inside the block (by fork, or in-thread) stop in verification
    while ``gate`` is clear and set ``entered`` when they get there.  The
    gate starts open, so engine builds sail through."""
    ctx = mp.get_context("fork")
    gate, entered = ctx.Event(), ctx.Event()
    gate.set()
    GATES[GatedEDRCost.gate_name] = (gate, entered)
    try:
        yield gate, entered
    finally:
        del GATES[GatedEDRCost.gate_name]


@contextmanager
def python_kernel():
    """Verifiers created inside the block run the Python DP kernel, as
    they do where the native one cannot be built (forked shard workers
    started inside the block too)."""
    saved = wedkernel._native
    wedkernel._native = False
    try:
        assert wedkernel.native_function() is None
        yield
    finally:
        wedkernel._native = saved
