"""The traced pass: the same operations replayed in-process, once per
depth, each depth on a freshly built stack.

Depths, outermost first::

    http      ServiceServer round trip over a real socket
    service   QueryService.query / .topk / .add_trajectory
    executor  Executor.query / .topk
    engine    engine.query / topk_search  (the workload's backend)
    shards    shard_query_callables() one by one + merge_shard_results()

``http`` and ``service`` see every operation.  The depths below the
result cache see only the operations that miss it (plus the inserts), so
the engine's own caches are in the same state, request for request, as
under the full stack.

Spans are recorded here, around the calls — the program is untouched.
Every stack is built over a thin stand-in for the engine that times each
``engine.query`` call, so one request yields its own span and the spans
of the engine probes inside it.  A depth's *residual* is the first minus
the second, measured within one request; a layer's self time is the
difference between the median residuals of two adjacent depths.  (The
spans of two depths cannot be subtracted request by request: they come
from different minutes of a machine whose speed drifts by more than the
layers in between cost.)  The engine-depth answers are the correctness
reference for the served run.
"""

from __future__ import annotations

import http.client
import json
import pickle
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

from repro.core.engine import SubtrajectorySearch
from repro.core.filtering import query_profile
from repro.core.invindex import InvertedIndex
from repro.core.mincand import mincand_greedy
from repro.core.partitioned import PartitionedSubtrajectorySearch
from repro.core.topk import topk_search
from repro.core.transport import FrameDecoder, encode_frame
from repro.service import QueryService, ServiceServer
from repro.service.executor import Executor
from repro.service.http import response_payload, topk_payload
from repro.trajectory.model import Trajectory

from checks import Answer, answer_of_payload, answer_of_result, cached_flags, reference_ops
from procs import REQUEST_TIMEOUT, Stack, free_port
from workloads import Inputs, Op, cost_model, load_dataset

__all__ = ["DEPTHS", "Call", "TracedPass", "accounting", "per_layer_metrics", "run_traced_pass"]

DEPTHS = ("http", "service", "executor", "engine", "shards")
_HEADERS = {"Content-Type": "application/json"}
#: `repro serve` defaults the in-process stacks must share.
_SERVE_WORKERS = 4
_SERVE_MAX_PENDING = 64


@dataclass
class Probe:
    """One ``engine.query`` call (a range request is one probe, a top-k
    request one per tau round)."""

    start: float
    end: float
    result: Any
    shard_walls: List[float] = field(default_factory=list)
    shard_results: List[Any] = field(default_factory=list)
    merge_seconds: float = 0.0

    @property
    def seconds(self) -> float:
        return self.end - self.start


@dataclass
class Call:
    """One operation at one depth."""

    op: Op
    start: float
    end: float
    answer: Optional[Answer] = None
    cached: bool = False
    reply_bytes: int = 0
    serialize_seconds: float = 0.0
    result: Any = None
    probes: List[Probe] = field(default_factory=list)

    @property
    def seconds(self) -> float:
        return self.end - self.start

    @property
    def residual(self) -> float:
        """This span minus the engine probes inside it."""
        return self.seconds - sum(p.seconds for p in self.probes)


@dataclass
class DepthRun:
    depth: str
    build_seconds: float
    calls: List[Call] = field(default_factory=list)
    insert_seconds: List[float] = field(default_factory=list)

    def queries(self) -> List[Call]:
        return [c for c in self.calls if c.op.kind != "insert"]


class _ProbeEngine:
    """Stands in for the engine: ``query`` is timed and its result kept (a
    top-k result alone carries no verification counters); everything else
    is the engine's own."""

    def __init__(self, engine) -> None:
        self._engine = engine
        self.probes: List[Probe] = []

    def __getattr__(self, name):
        return getattr(self._engine, name)

    def query(self, query, **kwargs):
        start = time.perf_counter()
        result = self._engine.query(query, **kwargs)
        self.probes.append(Probe(start, time.perf_counter(), result))
        return result


class _ShardProbeEngine(_ProbeEngine):
    """Runs the partitioned engine's public per-shard callables one after
    another, then its merge, timing each piece."""

    def query(self, query, *, tau=None, tau_ratio=None, **_ignored):
        start = time.perf_counter()
        walls, results = [], []
        for call in self._engine.shard_query_callables(query, tau=tau, tau_ratio=tau_ratio):
            t0 = time.perf_counter()
            results.append(call())
            walls.append(time.perf_counter() - t0)
        t0 = time.perf_counter()
        merged = self._engine.merge_shard_results(results)
        end = time.perf_counter()
        self.probes.append(Probe(start, end, merged, walls, results, end - t0))
        return merged


def build_engine(inputs: Inputs, nodes: Sequence[str] = ()):
    """The engine ``repro serve`` builds for this workload, on freshly
    loaded data.  Returns ``(engine, build_seconds)``."""
    spec = inputs.spec
    graph, dataset = load_dataset(inputs)
    costs = cost_model(spec, graph)
    t0 = time.perf_counter()
    if spec.backend == "single":
        engine = SubtrajectorySearch(dataset, costs)
    else:
        kwargs: Dict[str, Any] = {"num_shards": spec.shards, "backend": spec.backend}
        if spec.frozen_index:
            kwargs.update(index_backend="frozen", index_path=str(inputs.index_stem))
        if spec.backend == "remote":
            kwargs.update(shard_map=list(nodes), connect_timeout=30.0)
        engine = PartitionedSubtrajectorySearch(dataset, costs, **kwargs)
    return engine, time.perf_counter() - t0


def _trajectory(op: Op) -> Trajectory:
    return Trajectory(list(op.path), None if op.timestamps is None else list(op.timestamps))


def replay(depth: str, inputs: Inputs, ops: Sequence[Op], nodes: Sequence[str] = ()) -> DepthRun:
    """Run ``ops`` in order through a fresh stack cut at ``depth``."""
    spec = inputs.spec
    engine, build_seconds = build_engine(inputs, nodes)
    probe = (_ShardProbeEngine if depth == "shards" else _ProbeEngine)(engine)
    run = DepthRun(depth, build_seconds)
    service = executor = server = conn = None
    try:
        if depth in ("http", "service"):
            service = QueryService(
                probe, max_workers=_SERVE_WORKERS, max_pending=_SERVE_MAX_PENDING,
                cache_size=spec.cache_size,
            )
        if depth == "http":
            server = ServiceServer(service, port=0).start()
            conn = http.client.HTTPConnection("127.0.0.1", server.port, timeout=REQUEST_TIMEOUT)
        if depth == "executor":
            executor = Executor(probe, max_workers=_SERVE_WORKERS, max_pending=_SERVE_MAX_PENDING)
        step = {
            "http": lambda op: _http_call(conn, op),
            "service": lambda op: _service_call(service, op),
            "executor": lambda op: _executor_call(executor, probe, op),
        }.get(depth, lambda op: _engine_call(probe, op))
        for op in ops:
            first = len(probe.probes)
            call = step(op)
            call.probes = probe.probes[first:]
            run.calls.append(call)
        if depth == "engine":
            for trip in inputs.probe_trips:
                t0 = time.perf_counter()
                engine.add_trajectory(trip, validate=True)
                run.insert_seconds.append(time.perf_counter() - t0)
    finally:
        if conn is not None:
            conn.close()
        if server is not None:
            server.shutdown()
        elif service is not None:
            service.close()
        if executor is not None:
            executor.close()
        if hasattr(engine, "close"):
            engine.close()
    return run


def _http_call(conn, op: Op) -> Call:
    start = time.perf_counter()
    conn.request("POST", op.url, body=op.body, headers=_HEADERS)
    response = conn.getresponse()
    body = response.read()
    end = time.perf_counter()
    if response.status != 200:
        raise RuntimeError(f"traced http op {op.index} -> {response.status}: {body[:200]!r}")
    call = Call(op, start, end, reply_bytes=len(body))
    if op.kind != "insert":
        payload = json.loads(body)
        call.answer = answer_of_payload(op, payload)
        call.cached = bool(payload["cached"])
    return call


def _service_call(service: QueryService, op: Op) -> Call:
    start = time.perf_counter()
    if op.kind == "insert":
        service.add_trajectory(_trajectory(op), validate=True)
        return Call(op, start, time.perf_counter())
    if op.kind == "topk":
        response = service.topk(list(op.path), op.k)
    else:
        response = service.query(list(op.path), tau_ratio=op.tau_ratio)
    end = time.perf_counter()
    shape = topk_payload if op.kind == "topk" else response_payload
    t0 = time.perf_counter()
    json.dumps(shape(response)).encode("utf-8")
    serialize = time.perf_counter() - t0
    return Call(
        op, start, end, answer_of_result(op, response.result), response.cached,
        serialize_seconds=serialize, result=response.result,
    )


def _executor_call(executor: Executor, engine, op: Op) -> Call:
    start = time.perf_counter()
    if op.kind == "insert":
        engine.add_trajectory(_trajectory(op), validate=True)
        return Call(op, start, time.perf_counter())
    if op.kind == "topk":
        result = executor.topk(list(op.path), op.k)
    else:
        result = executor.query(list(op.path), tau_ratio=op.tau_ratio)
    return Call(op, start, time.perf_counter(), answer_of_result(op, result), result=result)


def _engine_call(engine, op: Op) -> Call:
    start = time.perf_counter()
    if op.kind == "insert":
        engine.add_trajectory(_trajectory(op), validate=True)
        return Call(op, start, time.perf_counter())
    if op.kind == "topk":
        result = topk_search(engine, list(op.path), op.k)
    else:
        result = engine.query(list(op.path), tau_ratio=op.tau_ratio)
    return Call(op, start, time.perf_counter(), answer_of_result(op, result), result=result)


# -- the pass -------------------------------------------------------------------


@dataclass
class TracedPass:
    """Every depth's calls for the first ``trace_ops`` operations, and the
    engine-depth answers for the whole list (the correctness reference)."""

    runs: Dict[str, DepthRun]
    answers: Dict[int, Answer]

    def spans(self) -> List[dict]:
        """One span per call, per engine probe inside it and (at engine
        depth) per stage replayed from the result's own clocks.  Trace id
        = operation index; ``parent`` names the enclosing span."""
        out: List[dict] = []
        for depth, run in self.runs.items():
            for call in run.calls:
                trace = call.op.index
                out.append(_span(trace, depth, call.start, call.end, None))
                for probe in call.probes:
                    out.append(_span(trace, "engine.query", probe.start, probe.end, depth))
                    if depth != "engine":
                        continue
                    t = probe.start
                    for stage in ("mincand", "lookup", "verify"):
                        dt = getattr(probe.result, f"{stage}_seconds")
                        out.append(_span(trace, stage, t, t + dt, "engine.query"))
                        t += dt
        return out


def _span(trace: int, name: str, start: float, end: float, parent: Optional[str]) -> dict:
    return {"trace": trace, "name": name, "start": start, "end": end, "parent": parent}


def run_traced_pass(
    inputs: Inputs, workdir: Path, *, depths: Sequence[str] = DEPTHS
) -> TracedPass:
    """Replay the first ``trace_ops`` operations at each of ``depths``.
    The engine depth runs on through the rest of the list, once per
    distinct answer, so that every served reply has a reference; its calls
    past ``trace_ops`` are kept out of the layer metrics.  The remote
    backend's worker nodes are real ``repro worker`` subprocesses; a node
    builds a fresh engine per connection, so one pair serves every depth."""
    spec = inputs.spec
    ops = inputs.ops[: spec.trace_ops]
    flags = cached_flags(ops, spec.cache_size)
    computed = [op for op, hit in zip(ops, flags) if not hit]
    to_answer = reference_ops(inputs.ops)
    if computed != to_answer[: len(computed)]:
        raise ValueError(f"{spec.name}: trace_ops reaches past the first repeat of a cache-off deck")
    answers: Dict[int, Answer] = {}
    nodes_stack = Stack(workdir)
    nodes: List[str] = []
    try:
        if spec.backend == "remote":
            nodes = [f"127.0.0.1:{free_port()}" for _ in range(spec.shards)]
            for node in nodes:
                nodes_stack.spawn(["worker", "--listen", node])
        runs = {}
        for depth in depths:
            if depth == "shards" and spec.backend == "single":
                continue
            if depth == "engine":
                run = replay(depth, inputs, to_answer, nodes)
                answers = {c.op.index: c.answer for c in run.queries()}
                run.calls = run.calls[: len(computed)]
            else:
                full = depth in ("http", "service")
                run = replay(depth, inputs, ops if full else computed, nodes)
            runs[depth] = run
    finally:
        nodes_stack.stop()
    return TracedPass(runs, answers)


# -- metrics --------------------------------------------------------------------


def _median(values: Sequence[float]) -> float:
    return statistics.median(values) if values else 0.0


def _mean(values: Sequence[float]) -> float:
    return statistics.fmean(values) if values else 0.0


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _residual(run: DepthRun) -> float:
    """Median residual over the requests that reached the engine."""
    return _median([c.residual for c in run.queries() if c.probes])


def _codec(result) -> tuple:
    """One worker reply through the wire codec, as ``_worker_main`` and
    ``FramedSocket`` do it: ``(frame bytes, round-trip seconds)``."""
    t0 = time.perf_counter()
    frame = encode_frame(pickle.dumps((0, "ok", result), protocol=pickle.HIGHEST_PROTOCOL))
    decoder = FrameDecoder()
    decoder.feed(frame)
    for payload in decoder.frames():
        pickle.loads(payload)
    return len(frame), time.perf_counter() - t0


def per_layer_metrics(
    traced: TracedPass, inputs: Inputs, *, stats: dict, healthz: dict,
    served_p50_ms: float, served_first_p50_ms: float, index_build_s: float,
) -> Dict[str, tuple]:
    """Every per-layer metric as ``name -> (value, unit)``.

    ``stats`` / ``healthz`` are the scrapes taken at the end of the served
    run; ``served_p50_ms`` is the client's median over every query the
    server's ``/stats`` window holds, ``served_first_p50_ms`` over the
    operations this pass replays."""
    spec = inputs.spec
    runs = traced.runs
    http_q, service_q, engine_q = (runs[d].queries() for d in ("http", "service", "engine"))
    probes = [p for c in engine_q for p in c.probes]
    n_computed = len(engine_q)

    m: Dict[str, tuple] = {}
    m["http.overhead_ms"] = (served_p50_ms - stats["latency_p50"] * 1e3, "ms")
    m["http.serialize_ms"] = (_median([c.serialize_seconds for c in service_q]) * 1e3, "ms")
    m["http.response_bytes"] = (_median([c.reply_bytes for c in http_q]), "bytes")
    m["service.self_ms"] = ((_residual(runs["service"]) - _residual(runs["executor"])) * 1e3, "ms")
    m["service.hit_ms"] = (_median([c.seconds for c in service_q if c.cached]) * 1e3, "ms")
    m["executor.self_ms"] = ((_residual(runs["executor"]) - _residual(runs["engine"])) * 1e3, "ms")
    m["cache.hit_ratio"] = (stats["cache_hit_rate"], "ratio")
    m["cache.invalidations"] = (stats["invalidations"], "count")
    m["batching.coalesced_share"] = (stats["coalesce_rate"], "ratio")
    m["executor.rejected"] = (stats["rejected"], "count")

    shard_run = runs.get("shards")
    shard_probes = [] if shard_run is None else [p for c in shard_run.calls for p in c.probes]
    # Probe j of an operation is the same tau round at both depths.
    fanout = [
        e.seconds - max(s.shard_walls) - s.merge_seconds for e, s in zip(probes, shard_probes)
    ]
    codecs = [[_codec(r) for r in p.shard_results] for p in shard_probes]
    m["partitioned.fanout_ms"] = (_median(fanout) * 1e3, "ms")
    m["partitioned.merge_ms"] = (_median([p.merge_seconds for p in shard_probes]) * 1e3, "ms")
    m["partitioned.shard_skew"] = (
        _median([max(p.shard_walls) / _mean(p.shard_walls) for p in shard_probes]), "ratio",
    )
    m["workers.rpc_overhead_ms"] = (
        _median([
            wall - result.total_seconds
            for p in shard_probes
            for wall, result in zip(p.shard_walls, p.shard_results)
        ]) * 1e3,
        "ms",
    )
    m["transport.reply_bytes"] = (_median([sum(b for b, _ in c) for c in codecs]), "bytes")
    m["transport.codec_us"] = (_median([sum(s for _, s in c) for c in codecs]) * 1e6, "us")

    results = [p.result for p in probes]
    visited = sum(r.verification.visited_columns for r in results)
    computed = sum(r.verification.computed_columns for r in results)
    m["mincand.ms"] = (_ratio(sum(r.mincand_seconds for r in results) * 1e3, n_computed), "ms")
    m["mincand.subsequence_len"] = (_subsequence_len(inputs, engine_q), "count")
    m["lookup.ms"] = (_ratio(sum(r.lookup_seconds for r in results) * 1e3, n_computed), "ms")
    m["lookup.candidates"] = (_ratio(sum(r.num_candidates for r in results), n_computed), "count")
    m["verify.ms"] = (_ratio(sum(r.verify_seconds for r in results) * 1e3, n_computed), "ms")
    m["verify.visited_columns"] = (_ratio(visited, n_computed), "count")
    m["verify.computed_columns"] = (_ratio(computed, n_computed), "count")
    m["verify.computed_share"] = (_ratio(computed, visited), "ratio")
    m["verify.duplicate_candidates"] = (
        _ratio(sum(r.verification.duplicate_candidates for r in results), n_computed), "count",
    )
    m["verify.dp_rounds"] = (_ratio(sum(r.dp_rounds for r in results), n_computed), "count")
    m["verify.python_share"] = (
        _ratio(sum(1 for r in results if "python" in r.dp_backend_used), len(results)), "ratio",
    )
    for name, key in (("trie_cache", "trie_cache"), ("submatrix_cache", "substitution_cache")):
        counters = stats.get(key, {})
        hits, misses = counters.get("hits", 0), counters.get("misses", 0)
        m[f"{name}.hit_ratio"] = (_ratio(hits, hits + misses), "ratio")

    index = healthz.get("index", {})
    m["index.build_s"] = (
        index_build_s if spec.frozen_index else runs["engine"].build_seconds, "s",
    )
    m["index.bytes"] = (index.get("bytes", 0), "bytes")
    m["index.delta_postings"] = (index.get("delta_postings", 0), "count")
    m["index.insert_ms"] = (_median(runs["engine"].insert_seconds) * 1e3, "ms")

    topk = [c.result for c in engine_q if c.op.kind == "topk"]
    m["topk.rounds"] = (_mean([r.tau_rounds for r in topk]), "count")
    m["topk.swept_share"] = (_ratio(sum(r.swept for r in topk), len(topk) * spec.trips), "ratio")
    m["topk.engine_ms"] = (_mean([r.total_seconds for r in topk]) * 1e3, "ms")

    traced_p50_ms = _median([c.seconds for c in http_q]) * 1e3
    m["trace.overhead_pct"] = ((_ratio(traced_p50_ms, served_first_p50_ms) - 1.0) * 100.0, "%")
    return m


def _subsequence_len(inputs: Inputs, engine_calls: Sequence[Call]) -> float:
    """Mean |Q'| per engine probe.  Out-of-process shards strip the
    subsequence from their replies; there the selector is called directly
    on an index of the whole data set."""
    lengths = [len(p.result.subsequence) for c in engine_calls for p in c.probes]
    if any(lengths) or not engine_calls:
        return _mean(lengths)
    graph, dataset = load_dataset(inputs)
    costs = cost_model(inputs.spec, graph)
    index = InvertedIndex(dataset)
    return _mean([
        len(mincand_greedy(query_profile(c.op.path, costs, index), p.result.tau))
        for c in engine_calls
        for p in c.probes
    ])


def accounting(traced: TracedPass) -> Dict[str, float]:
    """Self time per layer (ms) for a request that reaches the engine,
    next to the http-depth median they should add up to.  The engine's own
    time is taken from the http-depth pass too, so the two sides of the
    sum saw the same minutes of the machine."""
    runs = traced.runs
    reached = [c for c in runs["http"].queries() if c.probes]
    out = {
        "http_p50_ms": _median([c.seconds for c in reached]) * 1e3,
        "http_self_ms": (_residual(runs["http"]) - _residual(runs["service"])) * 1e3,
        "service_self_ms": (_residual(runs["service"]) - _residual(runs["executor"])) * 1e3,
        "executor_self_ms": (_residual(runs["executor"]) - _residual(runs["engine"])) * 1e3,
        "above_engine_ms": _residual(runs["engine"]) * 1e3,
        "engine_ms": _median([sum(p.seconds for p in c.probes) for c in reached]) * 1e3,
    }
    out["sum_ms"] = sum(v for k, v in out.items() if k != "http_p50_ms")
    return out
