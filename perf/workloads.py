"""The four serving workloads and their seeded inputs.

A workload is a data set (city + trips, written as the files the CLI
loads), a ``repro serve`` configuration, and an ordered list of HTTP
operations.  Two integers decide everything; the program under test only
ever sees the generated files and the requests:

- the constant ``DATA_SEED`` makes the city, the trips, the population of
  distinct queries, the trips that get inserted, and the *deck*: the
  multiset of (query, threshold) pairs one pass of the workload consists
  of;
- the run's ``--seed`` shuffles the deck; the request list is that order
  repeated a fixed number of passes, with the inserts interleaved.

Fixing the deck is what makes a short run repeatable: sixty top-k
requests drawn afresh differ by a quarter in median latency from one draw
to the next, which no bound could tell from a regression.  A run is a
whole number of passes — a request count, not a wall time — so both sides
of an A/B send the same requests and end on the same index.

The names, parameters and the reason each workload exists are the
contract later issues cite; ``perf/README.md`` repeats them in prose.
"""

from __future__ import annotations

import dataclasses
import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from repro.bench.workloads import sample_queries
from repro.distance.costs import EDRCost, NetEDRCost
from repro.network.generators import grid_city
from repro.network.io import load_network, save_network
from repro.trajectory.dataset import TrajectoryDataset
from repro.trajectory.generator import TripGenerator

__all__ = [
    "WORKLOADS", "Inputs", "Op", "Workload", "generate", "load_dataset", "smoke_variant",
]

#: makes the city, the trips and the query population (see the module doc).
DATA_SEED = 20260927
#: un-timed requests sent before every timed phase, disjoint from the list.
WARMUP_OPS = 10
#: trips the traced pass inserts by a direct ``add_trajectory`` call.
INSERT_PROBES = 5


@dataclass(frozen=True)
class Workload:
    """One named traffic mix through one serving configuration."""

    name: str
    why: str
    grid: int  #: the city is a grid x grid jittered lattice
    trips: int
    function: str  #: cost model (``repro serve --function``)
    backend: str  #: "single" | "processes" | "remote"
    shards: int
    frozen_index: bool  #: serve from ``repro index build`` files
    cache_size: int  #: result-cache entries (0 = off)
    kind: str  #: "range" | "topk"
    query_len: int
    tau_ratios: Tuple[float, ...]  #: drawn per request (range only)
    k: int  #: top-k depth (topk only)
    population: int  #: distinct query paths
    zipf_exponent: float  #: popularity of rank r is r**-exponent; 0 = uniform
    deck: int  #: queries in one pass; rank r gets its Zipf share of them
    insert_every: int  #: one POST /trajectories after every n-th query (0 = none)
    clients: int  #: closed-loop keep-alive connections
    passes: int  #: times through the deck in a run of BENCHMARK.json's run_seconds
    trace_ops: int  #: leading operations the traced pass replays at every depth
    min_trip: int = 12
    max_trip: int = 90


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="range_cold",
            why="48 distinct |Q|=40 range queries, 5 passes past the 32-entry engine "
            "caches, result cache off: cold numpy verification, no process hop",
            grid=24, trips=2000, function="edr", backend="single", shards=1,
            frozen_index=False, cache_size=0, kind="range", query_len=40,
            tau_ratios=(0.1,), k=0, population=48, zipf_exponent=0.0, deck=48,
            insert_every=0, clients=1, passes=5, trace_ops=32,
        ),
        Workload(
            name="zipf_hot",
            why="512 requests, Zipf(1.2) over 64 |Q|=15 queries, 2 clients, result cache "
            "on: http+service+cache are the whole cost, verifier nearly idle",
            grid=24, trips=2000, function="edr", backend="single", shards=1,
            frozen_index=False, cache_size=1024, kind="range", query_len=15,
            tau_ratios=(0.2,), k=0, population=64, zipf_exponent=1.2, deck=512,
            insert_every=0, clients=2, passes=1, trace_ops=100,
        ),
        Workload(
            name="sharded_mixed",
            why="2 process shards on frozen index files, netedr, 4 passes of 40 requests "
            "Zipf over 24 |Q|=40 queries at 4 thresholds plus an insert per 10 queries: "
            "writes beside reads, warm tries, delta overlay",
            grid=28, trips=6000, function="netedr", backend="processes", shards=2,
            frozen_index=True, cache_size=1024, kind="range", query_len=40,
            tau_ratios=(0.05, 0.10, 0.15, 0.20), k=0, population=24, deck=40,
            zipf_exponent=1.2, insert_every=10, clients=1, passes=4,
            trace_ops=22,
        ),
        Workload(
            name="topk_remote",
            why="48 distinct |Q|=16 top-5 requests, 5 passes, over 2 socket worker nodes, "
            "cache off: every tau-doubling round is a pickle-over-socket fan-out",
            grid=24, trips=2000, function="edr", backend="remote", shards=2,
            frozen_index=False, cache_size=0, kind="topk", query_len=16,
            tau_ratios=(), k=5, population=48, zipf_exponent=0.0, deck=48,
            insert_every=0, clients=1, passes=5, trace_ops=16,
        ),
    )
}


def smoke_variant(spec: Workload) -> Workload:
    """The same traffic shape on a 60-trip city with a 12-query deck — what
    ``--smoke`` and the tier-1 smoke test run (one pass)."""
    return dataclasses.replace(
        spec,
        grid=8,
        trips=60,
        min_trip=20,
        max_trip=40,
        query_len=min(spec.query_len, 16),
        k=min(spec.k, 3),
        population=5 if spec.zipf_exponent else 12,
        deck=12,
        insert_every=0 if spec.insert_every == 0 else 4,
        passes=1,
        trace_ops=6,
    )


@dataclass(frozen=True)
class Op:
    """One HTTP operation.  ``key`` identifies the answer: two query ops
    with the same key between the same two inserts have equal answers."""

    index: int
    kind: str  #: "range" | "topk" | "insert"
    url: str
    body: bytes
    path: Tuple[int, ...]
    tau_ratio: Optional[float] = None
    k: Optional[int] = None
    timestamps: Optional[Tuple[float, ...]] = None

    @property
    def key(self) -> tuple:
        return (self.kind, self.path, self.tau_ratio, self.k)


@dataclass
class Inputs:
    """What one (workload, seed, passes) triple generates."""

    spec: Workload
    network_path: Path
    trips_path: Path
    index_stem: Path  #: where ``repro index build`` writes (frozen workloads)
    ops: List[Op]
    warmup: List[Op]
    probe_trips: list  #: trips the traced pass inserts directly (index.insert_ms)

    def request_bytes(self) -> bytes:
        """The request list as sent on the wire, for determinism checks."""
        return b"\n".join(op.url.encode() + b" " + op.body for op in self.ops)


def _query_op(spec: Workload, index: int, path: Sequence[int], tau_ratio: Optional[float]) -> Op:
    if spec.kind == "topk":
        payload = {"path": list(path), "k": spec.k}
        return Op(index, "topk", "/query", json.dumps(payload).encode(), tuple(path), k=spec.k)
    payload = {"path": list(path), "tau_ratio": tau_ratio}
    return Op(
        index, "range", "/query", json.dumps(payload).encode(), tuple(path), tau_ratio=tau_ratio
    )


def _distinct(queries: Sequence[Sequence[int]]) -> List[tuple]:
    return list(dict.fromkeys(map(tuple, queries)))


def build_deck(spec: Workload, population: Sequence[tuple]) -> List[tuple]:
    """One pass of the workload as ``(path, tau_ratio)`` pairs: rank ``r``
    of the population appears in proportion to ``r ** -zipf_exponent``
    (largest remainders round the counts to ``spec.deck``), and each
    query's appearances step through the thresholds in turn."""
    weights = [1.0 / (rank + 1) ** spec.zipf_exponent for rank in range(len(population))]
    exact = [w * spec.deck / sum(weights) for w in weights]
    counts = [int(x) for x in exact]
    by_remainder = sorted(range(len(exact)), key=lambda i: (counts[i] - exact[i], i))
    for i in by_remainder[: spec.deck - sum(counts)]:
        counts[i] += 1
    ratios = spec.tau_ratios or (None,)
    return [
        (path, ratios[(rank + n) % len(ratios)])
        for rank, (path, count) in enumerate(zip(population, counts))
        for n in range(count)
    ]


def cost_model(spec: Workload, graph):
    """The cost model ``repro serve --function <spec.function>`` builds."""
    if spec.function == "edr":
        return EDRCost(graph, epsilon=100.0)
    if spec.function == "netedr":
        return NetEDRCost(graph)
    raise ValueError(f"workload function {spec.function!r} is not wired up")


def load_dataset(inputs: Inputs):
    """A fresh ``(graph, dataset)`` read from the generated files — the
    exact bytes the served program loads; inserts mutate the dataset, so
    every in-process stack loads its own."""
    graph = load_network(str(inputs.network_path))
    return graph, TrajectoryDataset.load(graph, str(inputs.trips_path))


def generate(spec: Workload, seed: int, workdir: Path, passes: int = 1) -> Inputs:
    """Write the data files under ``workdir`` and build the request list:
    ``passes`` times through the deck in the order ``seed`` gives it."""
    graph = grid_city(spec.grid, spec.grid, seed=DATA_SEED)
    dataset = TrajectoryDataset(graph)
    dataset.extend(
        TripGenerator(graph, seed=DATA_SEED + 1).generate(
            spec.trips, min_length=spec.min_trip, max_length=spec.max_trip
        )
    )
    network_path = workdir / "net.txt"
    trips_path = workdir / "trips.jsonl"
    save_network(graph, str(network_path))
    dataset.save(str(trips_path))

    # Oversample, then dedupe: the population and the warm-up are disjoint.
    wanted = spec.population + WARMUP_OPS
    pool = _distinct(sample_queries(dataset, wanted * 4, spec.query_len, seed=DATA_SEED + 2))
    if len(pool) < wanted:
        raise ValueError(f"{spec.name}: only {len(pool)} distinct queries of {wanted}")
    population, warm = pool[: spec.population], pool[spec.population : wanted]

    # The same seeded order every pass: in a uniform deck a repeat is then
    # always further back than the engine's 32-entry LRU caches reach.
    order = build_deck(spec, population)
    random.Random(seed).shuffle(order)
    if spec.insert_every and spec.deck % spec.insert_every:
        # An insert follows every insert_every-th query of the whole list.
        raise ValueError(f"{spec.name}: passes differ unless deck % insert_every == 0")
    requests = order * passes

    num_inserts = len(requests) // spec.insert_every if spec.insert_every else 0
    new_trips = TripGenerator(graph, seed=DATA_SEED + 3).generate(
        num_inserts + INSERT_PROBES, min_length=spec.min_trip, max_length=spec.max_trip
    )
    ops: List[Op] = []
    for n, (path, ratio) in enumerate(requests, start=1):
        ops.append(_query_op(spec, len(ops), path, ratio))
        if spec.insert_every and n % spec.insert_every == 0:
            trip = new_trips[n // spec.insert_every - 1]
            body = json.dumps({"path": list(trip.path), "timestamps": list(trip.timestamps)})
            ops.append(
                Op(len(ops), "insert", "/trajectories", body.encode(), tuple(trip.path),
                   timestamps=tuple(trip.timestamps))
            )

    warm_ratio = spec.tau_ratios[0] if spec.tau_ratios else None
    warmup = [_query_op(spec, -1 - i, path, warm_ratio) for i, path in enumerate(warm)]
    return Inputs(
        spec, network_path, trips_path, workdir / "index", ops, warmup,
        probe_trips=new_trips[num_inserts:],
    )
