"""Serving throughput — QPS vs. concurrency, and fan-out backend latency.

Not a paper figure: the paper measures single-query latency; this
benchmark measures the serving subsystem built on top of it
(`repro.service`).  Two experiments:

1. *Throughput*: a Zipf-skewed request stream (popular routes repeat, as
   in real traffic) replayed against the service at growing client
   concurrency, vs. one client calling the engine serially (the
   pre-service deployment model).  Expectation: service QPS clears 2x
   the serial baseline by concurrency 8, with a substantial cache hit
   rate on the skewed mix.

2. *Backend latency*: single-query latency of the two single-machine
   shard fan-out backends of `PartitionedSubtrajectorySearch` on a
   CPU-bound 4-shard workload.  Verification holds the GIL, so `serial`
   uses one core per query; the processes backend (one worker process
   per shard) should beat it by >1.5x wherever 4 cores are actually
   available — the assertion is gated on CPU affinity so small
   containers still record the numbers.

3. *Remote backend*: the same queries served by standalone worker-node
   processes over the socket transport — latency percentiles at growing
   offered load, plus the cost of a reconnect storm (every node's
   connection torn down at once by an injected fault; the disrupted
   query's latency *is* the recovery time, since reconnect + journal
   replay happen inline before it is retried).

Answers stay element-for-element identical across deployments.
"""

import multiprocessing as mp
import os
import socket
import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager

import random

from _helpers import load_workload

from repro.bench.harness import SeriesTable
from repro.bench.workloads import sample_queries, sample_zipf_queries
from repro.core.engine import SubtrajectorySearch
from repro.core.partitioned import PartitionedSubtrajectorySearch
from repro.core.remote import run_worker_node
from repro.core.topk import topk_search
from repro.faultinject import FaultPlan, FaultRule
from repro.service import QueryService

CONCURRENCY = [1, 2, 4, 8]
TAU_RATIO = 0.3
NUM_REQUESTS = 60
NUM_DISTINCT = 10
QUERY_LENGTH = 15
NUM_SHARDS = 4

#: backend-latency experiment: heavier queries so verification dominates
#: the pipe/pickle overhead of the processes backend.
BACKEND_QUERY_LENGTH = 30
BACKEND_TAU_RATIO = 0.5
BACKEND_NUM_QUERIES = 4
BACKEND_REPEATS = 2
#: processes must beat serial by this factor on a >=4-core machine.
BACKEND_SPEEDUP_FLOOR = 1.5

#: blended-workload experiment: a zipf-skewed stream mixing range and
#: top-k requests; repeats of a popular route arrive at varying depth k,
#: so the k-independent cache signature gets to serve shallow repeats
#: from a deeper stored ranking (the truncation reuse rule).
BLENDED_NUM_REQUESTS = 60
BLENDED_TOPK_SHARE = 0.5
BLENDED_K_CHOICES = (3, 5, 8)
BLENDED_CONCURRENCY = [1, 4]

#: remote-backend experiment: offered load (client threads), request
#: count per level, node count, and the storm ordinal (the per-shard
#: request on which every node's connection is torn down at once).
REMOTE_CONCURRENCY = [1, 2, 4]
REMOTE_NUM_REQUESTS = 30
REMOTE_NODES = 2
REMOTE_STORM_REQUEST = 2
REMOTE_RECOVERY_CEILING = 30.0


def _match_keys(result):
    return [(m.trajectory_id, m.start, m.end) for m in result.matches]


def _replay_concurrent(service, requests, concurrency):
    """Wall-clock seconds to drain ``requests`` with ``concurrency``
    client threads hammering the service."""
    t0 = time.perf_counter()
    with ThreadPoolExecutor(max_workers=concurrency) as clients:
        futures = [
            clients.submit(service.query, q, tau_ratio=TAU_RATIO) for q in requests
        ]
        responses = [f.result() for f in futures]
    return time.perf_counter() - t0, responses


def test_serving_throughput(benchmark, recorder, bench_scale):
    graph, dataset, costs, _ = load_workload("small", "EDR", scale=bench_scale)
    requests = sample_zipf_queries(
        dataset, NUM_REQUESTS, QUERY_LENGTH, distinct=NUM_DISTINCT, seed=99
    )

    # Baseline: the pre-service deployment — one client, direct engine,
    # no cache, no concurrency.
    direct = SubtrajectorySearch(dataset, costs)
    t0 = time.perf_counter()
    expected = {}
    for q in requests:
        expected[tuple(q)] = _match_keys(direct.query(q, tau_ratio=TAU_RATIO))
    serial_seconds = time.perf_counter() - t0
    serial_qps = NUM_REQUESTS / serial_seconds

    engine = PartitionedSubtrajectorySearch(dataset, costs, num_shards=NUM_SHARDS)
    qps = []
    hit_rates = []
    coalesce_rates = []
    for concurrency in CONCURRENCY:
        service = QueryService(engine, max_workers=8, cache_size=256)
        seconds, responses = _replay_concurrent(service, requests, concurrency)
        # Serving correctness: every answer (cache hits and coalesced
        # duplicates included) must equal the direct engine's.
        for q, response in zip(requests, responses):
            assert _match_keys(response.result) == expected[tuple(q)]
        snap = service.stats()
        qps.append(NUM_REQUESTS / seconds)
        hit_rates.append(snap["cache_hit_rate"])
        coalesce_rates.append(snap["coalesce_rate"])
        service.close()

    table = SeriesTable(
        "series",
        [f"c={c}" for c in CONCURRENCY],
        title=(
            "Serving throughput (small / EDR): QPS vs client concurrency "
            f"(serial direct baseline: {serial_qps:.1f} QPS)"
        ),
    )
    table.add_row("service QPS", qps, formatter=lambda v: f"{v:.1f}")
    table.add_row("vs baseline", [q / serial_qps for q in qps],
                  formatter=lambda v: f"{v:.2f}x")
    table.add_row("cache hit rate", hit_rates, formatter=lambda v: f"{v:.0%}")
    table.add_row("coalesce rate", coalesce_rates, formatter=lambda v: f"{v:.0%}")
    table.print()

    # Acceptance: >= 2x serial QPS at concurrency 8, nonzero hit rate on
    # the zipf mix.
    assert qps[-1] >= 2.0 * serial_qps
    assert hit_rates[-1] > 0.0

    recorder.record(
        "serving_throughput",
        {
            "concurrency": CONCURRENCY,
            "qps": qps,
            "serial_qps": serial_qps,
            "speedup": [q / serial_qps for q in qps],
            "cache_hit_rate": hit_rates,
            "coalesce_rate": coalesce_rates,
            "requests": NUM_REQUESTS,
            "distinct": NUM_DISTINCT,
            "shards": NUM_SHARDS,
            "scale": bench_scale,
        },
        expectation="service QPS >= 2x serial direct baseline at c=8; "
        "nonzero cache hit rate on the zipf-skewed mix",
    )

    # Steady-state single-request latency through the warmed service.
    service = QueryService(engine, max_workers=8, cache_size=256)
    service.query(requests[0], tau_ratio=TAU_RATIO)
    benchmark(lambda: service.query(requests[0], tau_ratio=TAU_RATIO))
    service.close()
    engine.close()


def _usable_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # non-Linux
        return os.cpu_count() or 1


def test_backend_single_query_latency(recorder, bench_scale):
    """Fan-out backends on a CPU-bound 4-shard workload.

    Serial is the GIL ceiling (one core per query); serial vs. processes
    shows the cross-process shard workers using >1 core per query.
    """
    graph, dataset, costs, _ = load_workload("beijing", "EDR", scale=bench_scale)
    queries = sample_queries(
        dataset, BACKEND_NUM_QUERIES, BACKEND_QUERY_LENGTH, seed=1234
    )

    backends = {
        "serial": {},
        "processes": {},
    }
    latencies = {}
    expected = None
    for backend, kwargs in backends.items():
        engine = PartitionedSubtrajectorySearch(
            dataset, costs, num_shards=NUM_SHARDS, backend=backend, **kwargs
        )
        try:
            # Warm-up pass doubles as the exactness check across backends.
            answers = [
                _match_keys(engine.query(q, tau_ratio=BACKEND_TAU_RATIO))
                for q in queries
            ]
            if expected is None:
                expected = answers
            else:
                assert answers == expected, f"{backend} backend changed answers"
            t0 = time.perf_counter()
            for _ in range(BACKEND_REPEATS):
                for q in queries:
                    engine.query(q, tau_ratio=BACKEND_TAU_RATIO)
            elapsed = time.perf_counter() - t0
            latencies[backend] = elapsed / (BACKEND_REPEATS * len(queries))
        finally:
            engine.close()

    speedup = latencies["serial"] / latencies["processes"]
    cores = _usable_cores()

    table = SeriesTable(
        "series",
        list(backends),
        title=(
            f"Fan-out backend single-query latency (beijing / EDR, "
            f"{NUM_SHARDS} shards, {cores} usable cores)"
        ),
    )
    table.add_row(
        "latency (ms)",
        [latencies[b] * 1e3 for b in backends],
        formatter=lambda v: f"{v:.1f}",
    )
    table.add_row(
        "vs processes",
        [latencies[b] / latencies["processes"] for b in backends],
        formatter=lambda v: f"{v:.2f}x",
    )
    table.print()

    recorder.record(
        "serving_backend_latency",
        {
            "backends": list(backends),
            "latency_seconds": [latencies[b] for b in backends],
            "speedup_processes_vs_serial": speedup,
            "usable_cores": cores,
            "num_shards": NUM_SHARDS,
            "query_length": BACKEND_QUERY_LENGTH,
            "tau_ratio": BACKEND_TAU_RATIO,
            "scale": bench_scale,
            "speedup_floor": BACKEND_SPEEDUP_FLOOR,
            "speedup_enforced": cores >= NUM_SHARDS,
        },
        expectation=(
            f"processes > {BACKEND_SPEEDUP_FLOOR}x faster than serial per "
            f"query on a {NUM_SHARDS}-shard CPU-bound workload when "
            f">= {NUM_SHARDS} cores are available"
        ),
    )

    # The whole point of cross-process sharding: more than one core per
    # query.  Only enforceable where the OS actually grants the cores.
    if cores >= NUM_SHARDS:
        assert speedup > BACKEND_SPEEDUP_FLOOR, (
            f"processes backend only {speedup:.2f}x faster than serial "
            f"with {cores} cores"
        )
    else:
        print(
            f"[skip-assert] {cores} usable core(s) < {NUM_SHARDS}: recorded "
            f"speedup {speedup:.2f}x without enforcing the "
            f"{BACKEND_SPEEDUP_FLOOR}x floor"
        )


# ---------------------------------------------------------------------------
# Blended workload: range + top-k through one service
# ---------------------------------------------------------------------------


def _topk_keys(result):
    return [(m.trajectory_id, m.start, m.end, m.distance) for m in result]


def test_blended_topk_throughput(recorder, bench_scale):
    """A zipf-skewed stream mixing range and top-k requests (ISSUE 10).

    The depth ``k`` of repeated top-k requests varies, so the
    k-independent cache signature can serve a shallow repeat from a
    deeper stored ranking by truncation — the reported *reuse hit rate*
    is the fraction of top-k requests answered that way.  Every answer
    (range and top-k, cached or computed) is checked against the direct
    single-engine oracle."""
    graph, dataset, costs, _ = load_workload("small", "EDR", scale=bench_scale)
    routes = sample_zipf_queries(
        dataset, BLENDED_NUM_REQUESTS, QUERY_LENGTH, distinct=NUM_DISTINCT, seed=42
    )
    mix = random.Random(4242)
    requests = [
        ("topk", q, mix.choice(BLENDED_K_CHOICES))
        if mix.random() < BLENDED_TOPK_SHARE
        else ("range", q, None)
        for q in routes
    ]

    # Direct single-engine oracle, one entry per distinct route: the
    # deepest ranking truncates to every smaller k (same rank order).
    direct = SubtrajectorySearch(dataset, costs)
    k_max = max(BLENDED_K_CHOICES)
    expected_range = {}
    expected_topk = {}
    for kind, q, _ in requests:
        key = tuple(q)
        if kind == "range" and key not in expected_range:
            expected_range[key] = _match_keys(direct.query(q, tau_ratio=TAU_RATIO))
        elif kind == "topk" and key not in expected_topk:
            expected_topk[key] = _topk_keys(topk_search(direct, q, k_max))

    engine = PartitionedSubtrajectorySearch(dataset, costs, num_shards=NUM_SHARDS)
    qps = []
    reuse_rates = []
    tau_rounds_mean = []
    for concurrency in BLENDED_CONCURRENCY:
        service = QueryService(engine, max_workers=8, cache_size=256)

        def serve(request):
            kind, q, k = request
            if kind == "topk":
                return request, service.topk(q, k)
            return request, service.query(q, tau_ratio=TAU_RATIO)

        t0 = time.perf_counter()
        with ThreadPoolExecutor(max_workers=concurrency) as clients:
            answers = list(clients.map(serve, requests))
        elapsed = time.perf_counter() - t0

        topk_total = topk_reused = 0
        rounds = []
        for (kind, q, k), response in answers:
            if kind == "range":
                assert _match_keys(response.result) == expected_range[tuple(q)]
                continue
            topk_total += 1
            want = expected_topk[tuple(q)][:k]
            assert _topk_keys(response.result) == want, (
                f"top-k answer diverged from the oracle at k={k}"
            )
            if response.cached:
                topk_reused += 1
            else:
                rounds.append(response.result.tau_rounds)
        qps.append(len(requests) / elapsed)
        reuse_rates.append(topk_reused / topk_total)
        tau_rounds_mean.append(sum(rounds) / max(1, len(rounds)))
        service.close()
    engine.close()

    table = SeriesTable(
        "series",
        [f"c={c}" for c in BLENDED_CONCURRENCY],
        title=(
            f"Blended serving (small / EDR): {topk_total}/{len(requests)} "
            "top-k requests in a zipf range + top-k mix"
        ),
    )
    table.add_row("blended QPS", qps, formatter=lambda v: f"{v:.1f}")
    table.add_row(
        "top-k reuse hit rate", reuse_rates, formatter=lambda v: f"{v:.0%}"
    )
    table.add_row(
        "tau rounds (computed avg)", tau_rounds_mean, formatter=lambda v: f"{v:.1f}"
    )
    table.print()

    # The zipf mix repeats popular routes at varying k: the truncation
    # rule must convert a good share of those into cache hits.
    assert reuse_rates[-1] > 0.0
    assert all(r >= 1 for r in tau_rounds_mean)

    recorder.record(
        "serving_topk_blended",
        {
            "concurrency": BLENDED_CONCURRENCY,
            "qps": qps,
            "topk_share": BLENDED_TOPK_SHARE,
            "topk_requests": topk_total,
            "k_choices": list(BLENDED_K_CHOICES),
            "topk_reuse_hit_rate": reuse_rates,
            "tau_rounds_mean": tau_rounds_mean,
            "requests": BLENDED_NUM_REQUESTS,
            "distinct": NUM_DISTINCT,
            "shards": NUM_SHARDS,
            "scale": bench_scale,
        },
        expectation=(
            "every blended answer bit-identical to the direct engine; "
            "repeated top-k routes at smaller k served from the deeper "
            "cached ranking (nonzero reuse hit rate)"
        ),
    )


# ---------------------------------------------------------------------------
# Remote backend: latency vs offered load, reconnect-storm recovery
# ---------------------------------------------------------------------------


@contextmanager
def _worker_nodes(count):
    """``count`` standalone worker-node processes on ephemeral ports."""
    ctx = mp.get_context("fork")
    procs, addresses = [], []
    for _ in range(count):
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()
        proc = ctx.Process(
            target=run_worker_node,
            args=("127.0.0.1", port),
            kwargs={"start_method": "fork"},
            name="repro-bench-node",
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


def _percentile(samples, q):
    ordered = sorted(samples)
    index = min(len(ordered) - 1, max(0, round(q * (len(ordered) - 1))))
    return ordered[index]


def test_remote_backend_latency_and_recovery(recorder, bench_scale):
    """Remote worker nodes over the socket transport: per-request latency
    percentiles as offered load grows, and the inline cost of a full
    reconnect storm (every node's connection dropped on the same request
    ordinal — the disrupted query pays connect + hello + snapshot ship +
    journal replay before its retry answers)."""
    graph, dataset, costs, _ = load_workload("small", "EDR", scale=bench_scale)
    requests = sample_zipf_queries(
        dataset, REMOTE_NUM_REQUESTS, QUERY_LENGTH, distinct=NUM_DISTINCT, seed=7
    )
    direct = SubtrajectorySearch(dataset, costs)
    expected = {
        tuple(q): _match_keys(direct.query(q, tau_ratio=TAU_RATIO))
        for q in requests
    }

    with _worker_nodes(REMOTE_NODES) as addresses:
        # Latency percentiles vs offered load.
        engine = PartitionedSubtrajectorySearch(
            dataset,
            costs,
            backend="remote",
            shard_map=addresses,
            connect_timeout=30.0,
        )
        percentiles = {"p50": [], "p95": [], "p99": []}
        qps = []
        try:
            engine.query(requests[0], tau_ratio=TAU_RATIO)  # warm connections
            for concurrency in REMOTE_CONCURRENCY:
                samples = []

                def timed(q):
                    t0 = time.perf_counter()
                    result = engine.query(q, tau_ratio=TAU_RATIO)
                    samples.append(time.perf_counter() - t0)
                    return q, result

                t0 = time.perf_counter()
                with ThreadPoolExecutor(max_workers=concurrency) as clients:
                    answers = list(clients.map(timed, requests))
                elapsed = time.perf_counter() - t0
                for q, result in answers:
                    assert _match_keys(result) == expected[tuple(q)]
                percentiles["p50"].append(_percentile(samples, 0.50))
                percentiles["p95"].append(_percentile(samples, 0.95))
                percentiles["p99"].append(_percentile(samples, 0.99))
                qps.append(len(requests) / elapsed)
        finally:
            engine.close()

        # Reconnect storm: every shard's connection torn down on its
        # REMOTE_STORM_REQUEST-th query send.  The disrupted query's
        # latency is the recovery time — reconnect, snapshot, replay,
        # retry all happen inline before it returns.
        storm_plan = FaultPlan(
            rules=[
                FaultRule(shard=s, op="conn_drop", request=REMOTE_STORM_REQUEST)
                for s in range(REMOTE_NODES)
            ]
        )
        engine = PartitionedSubtrajectorySearch(
            dataset,
            costs,
            backend="remote",
            shard_map=addresses,
            fault_plan=storm_plan,
            connect_timeout=30.0,
        )
        try:
            latencies = []
            for q in requests[: REMOTE_STORM_REQUEST + 2]:
                t0 = time.perf_counter()
                result = engine.query(q, tau_ratio=TAU_RATIO)
                latencies.append(time.perf_counter() - t0)
                assert _match_keys(result) == expected[tuple(q)]
            recovery_seconds = latencies[REMOTE_STORM_REQUEST - 1]
            reconnects = engine.status().restarts_total
        finally:
            engine.close()

    assert reconnects == REMOTE_NODES
    assert recovery_seconds < REMOTE_RECOVERY_CEILING

    table = SeriesTable(
        "series",
        [f"c={c}" for c in REMOTE_CONCURRENCY],
        title=(
            f"Remote backend latency (small / EDR, {REMOTE_NODES} nodes; "
            f"storm recovery {recovery_seconds * 1e3:.0f} ms over "
            f"{reconnects} reconnects)"
        ),
    )
    for name in ("p50", "p95", "p99"):
        table.add_row(
            f"{name} (ms)",
            [v * 1e3 for v in percentiles[name]],
            formatter=lambda v: f"{v:.1f}",
        )
    table.add_row("QPS", qps, formatter=lambda v: f"{v:.1f}")
    table.print()

    recorder.record(
        "remote_serving_latency",
        {
            "concurrency": REMOTE_CONCURRENCY,
            "qps": qps,
            "latency_p50_seconds": percentiles["p50"],
            "latency_p95_seconds": percentiles["p95"],
            "latency_p99_seconds": percentiles["p99"],
            "nodes": REMOTE_NODES,
            "requests": REMOTE_NUM_REQUESTS,
            "reconnect_storm": {
                "recovery_seconds": recovery_seconds,
                "reconnects": reconnects,
                "storm_request": REMOTE_STORM_REQUEST,
            },
            "scale": bench_scale,
        },
        expectation=(
            "remote answers element-identical to the direct engine at every "
            f"offered load; a full {REMOTE_NODES}-node reconnect storm "
            f"recovers inline in < {REMOTE_RECOVERY_CEILING:.0f}s with one "
            "reconnect per node"
        ),
    )
