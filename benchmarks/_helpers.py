"""Shared machinery for the per-figure/table benchmarks."""

from __future__ import annotations

import os
import time
from typing import Callable, List, Sequence, Tuple

from repro.baselines import PlainSWScan, QGramIndex, dison_engine, torch_engine
from repro.bench.datasets import build_dataset
from repro.bench.workloads import sample_queries
from repro.core.engine import SubtrajectorySearch
from repro.distance.costs import (
    CostModel,
    EDRCost,
    ERPCost,
    LevenshteinCost,
    NetEDRCost,
    NetERPCost,
    SURSCost,
)
from repro.network.graph import RoadNetwork
from repro.trajectory.dataset import TrajectoryDataset

FULL = os.environ.get("REPRO_BENCH_FULL", "0") == "1"

#: datasets per run mode (the paper uses all four everywhere)
DATASETS_QUICK = ["beijing"]
DATASETS_FULL = ["beijing", "porto", "singapore", "sanfran"]
#: similarity functions per run mode (paper: all six)
FUNCTIONS_QUICK = ["EDR", "SURS", "Lev"]
FUNCTIONS_FULL = ["EDR", "ERP", "SURS", "Lev", "NetEDR", "NetERP"]

#: default query length — the paper uses 60 on trajectories averaging ~100;
#: our scaled trips average ~40, so 15 keeps the same ratio.
DEFAULT_QUERY_LENGTH = 15
DEFAULT_NUM_QUERIES = 4 if not FULL else 10


def dataset_names() -> List[str]:
    return DATASETS_FULL if FULL else DATASETS_QUICK


def function_names() -> List[str]:
    return FUNCTIONS_FULL if FULL else FUNCTIONS_QUICK


def make_cost_model(name: str, graph: RoadNetwork) -> CostModel:
    """The §6.1 cost-model settings, scaled to the synthetic networks."""
    if name == "Lev":
        return LevenshteinCost()
    if name == "EDR":
        # Paper: eps = 0.001 (degrees) on city-scale coordinates — roughly a
        # city block; our grids use ~100 m blocks.
        return EDRCost(graph, epsilon=80.0)
    if name == "ERP":
        # Paper: eta = 1e-4 * median nearest-neighbor distance.
        return ERPCost(graph, eta=1e-4 * graph.median_edge_weight())
    if name == "NetEDR":
        return NetEDRCost(graph)  # eps = median edge weight (paper default)
    if name == "NetERP":
        # Paper: G_del = 2M (meters-scale datasets); ours are ~100x smaller.
        return NetERPCost(graph, g_del=2_000.0)  # eta = median edge weight
    if name == "SURS":
        return SURSCost(graph)
    raise KeyError(f"unknown similarity function {name!r}")


def load_workload(
    profile: str,
    function: str,
    *,
    scale: float,
    query_length: int = DEFAULT_QUERY_LENGTH,
    num_queries: int = DEFAULT_NUM_QUERIES,
) -> Tuple[RoadNetwork, TrajectoryDataset, CostModel, List[List[int]]]:
    """Dataset + cost model + query workload for one experiment cell."""
    costs_probe = make_cost_model(function, build_dataset(profile, scale=scale)[0])
    representation = costs_probe.representation
    graph, dataset = build_dataset(profile, scale=scale, representation=representation)
    costs = make_cost_model(function, graph)
    queries = sample_queries(dataset, num_queries, query_length, seed=777)
    return graph, dataset, costs, queries


# ---------------------------------------------------------------------------
# Method registry (the Fig. 6 legend)
# ---------------------------------------------------------------------------


class Method:
    """A competitor: builds once, answers `query(q, tau)` repeatedly."""

    def __init__(self, name: str, build: Callable, query: Callable) -> None:
        self.name = name
        self._build = build
        self._query = query
        self._state = None

    def build(self, dataset: TrajectoryDataset, costs: CostModel) -> float:
        t0 = time.perf_counter()
        self._state = self._build(dataset, costs)
        return time.perf_counter() - t0

    def query(self, query: Sequence[int], tau: float):
        return self._query(self._state, query, tau)


def method_registry(*, include_plain_sw: bool = True, include_qgram: bool = True) -> List[Method]:
    """OSF-BT / OSF-SW / DISON-BT / DISON-SW / Torch-BT / Torch-SW /
    Plain-SW / q-gram, matching the Fig. 6 legend."""
    methods = [
        Method(
            "OSF-BT",
            lambda ds, c: SubtrajectorySearch(ds, c, verification="trie"),
            lambda e, q, tau: e.query(q, tau=tau).matches,
        ),
        Method(
            "OSF-SW",
            lambda ds, c: SubtrajectorySearch(ds, c, verification="sw"),
            lambda e, q, tau: e.query(q, tau=tau).matches,
        ),
        Method(
            "DISON-BT",
            lambda ds, c: dison_engine(ds, c, verification="trie"),
            lambda e, q, tau: e.query(q, tau=tau).matches,
        ),
        Method(
            "DISON-SW",
            lambda ds, c: dison_engine(ds, c, verification="sw"),
            lambda e, q, tau: e.query(q, tau=tau).matches,
        ),
        Method(
            "Torch-BT",
            lambda ds, c: torch_engine(ds, c, verification="trie"),
            lambda e, q, tau: e.query(q, tau=tau).matches,
        ),
        Method(
            "Torch-SW",
            lambda ds, c: torch_engine(ds, c, verification="sw"),
            lambda e, q, tau: e.query(q, tau=tau).matches,
        ),
    ]
    if include_plain_sw:
        # Paper semantics (App. A): best match per trajectory.
        methods.append(
            Method(
                "Plain-SW",
                lambda ds, c: PlainSWScan(ds, c, semantics="best"),
                lambda s, q, tau: s.query(q, tau),
            )
        )
    if include_qgram:
        methods.append(
            Method(
                "q-gram",
                lambda ds, c: QGramIndex(ds, c, q=3),
                lambda s, q, tau: s.query(q, tau),
            )
        )
    return methods


def supports(method: Method, costs: CostModel) -> bool:
    """q-gram only applies to unit-cost models (§6.1)."""
    if method.name == "q-gram":
        return isinstance(costs, (LevenshteinCost, EDRCost, NetEDRCost))
    return True


def avg_query_seconds(
    method: Method, queries: Sequence[Sequence[int]], taus: Sequence[float]
) -> float:
    t0 = time.perf_counter()
    for q, tau in zip(queries, taus):
        method.query(q, tau)
    return (time.perf_counter() - t0) / len(queries)


def taus_for(
    costs: CostModel, queries: Sequence[Sequence[int]], tau_ratio: float
) -> List[float]:
    from repro.core.filtering import tau_from_ratio

    return [tau_from_ratio(q, costs, tau_ratio) for q in queries]
