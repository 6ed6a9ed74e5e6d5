"""Cost models defining weighted edit distances (§2.2).

A :class:`CostModel` supplies the three edit-operation costs
``ins`` / ``del`` / ``sub`` over an integer symbol alphabet (vertex ids or
edge ids), plus the two filtering hooks the search engine needs:

- ``neighbors(q)`` — the substitution neighborhood ``B(q)`` (Definition 4):
  all symbols ``b`` with ``sub(q, b) <= eta``;
- ``filter_cost(q)`` — ``c(q) = min over q' in Sigma+ \\ B(q) of sub(q, q')``
  (Eq. 7), the guaranteed cost of editing ``q`` away without landing in its
  neighborhood.

The verifier's count bound adds one hook: ``deletion_floor()``, a lower
bound on every symbol's deletion cost.

The WED assumptions (§2.2.1) must hold: ``sub(a,b) >= 0``, symmetry
``sub(a,b) == sub(b,a)`` (hence ``ins(a) == del(a)``), and ``sub(a,a) == 0``.
:func:`validate_cost_model` spot-checks them.

Six instances are provided: Levenshtein, EDR, ERP (coordinate-based), and
NetEDR, NetERP, SURS (network-aware, §2.2.3).  Network distances run on an
undirected view of the graph — the paper's fix for the asymmetry of directed
shortest paths — and are answered by an exact hub-labeling oracle.
"""

from __future__ import annotations

import heapq
import math
from abc import ABC, abstractmethod
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.exceptions import CostModelError
from repro.network.graph import RoadNetwork
from repro.network.hub_labeling import HubLabeling
from repro.network.shortest_path import bounded_dijkstra
from repro.spatial.geometry import Point, centroid, euclidean, padded_radius
from repro.spatial.kdtree import KDTree

__all__ = [
    "CostModel",
    "EDRCost",
    "ERPCost",
    "LevenshteinCost",
    "NetEDRCost",
    "NetERPCost",
    "SURSCost",
    "validate_cost_model",
]


class CostModel(ABC):
    """Edit-operation costs plus the filtering hooks of §3.1.

    ``representation`` declares which alphabet the model expects
    (``"vertex"`` or ``"edge"``); the engine checks it against the dataset.
    """

    representation: str = "vertex"
    #: display name used in benchmark tables
    name: str = "wed"

    @property
    def alphabet_size(self) -> Optional[int]:
        """Graph-bound models answer only for symbols ``0 .. size - 1``
        (their vertex or edge ids); ``None`` = any integer is a symbol."""
        return None

    @abstractmethod
    def sub(self, a: int, b: int) -> float:
        """Substitution cost ``sub(a, b)``."""

    @abstractmethod
    def ins(self, a: int) -> float:
        """Insertion cost ``ins(a)`` (== deletion cost by symmetry)."""

    def delete(self, a: int) -> float:
        """Deletion cost ``del(a)``; defaults to ``ins(a)`` (§2.2.1)."""
        return self.ins(a)

    def deletion_floor(self) -> float:
        """A lower bound on :meth:`delete` over every symbol: ``δ``.

        The verifier's count bound (:mod:`repro.core.verification`) reads
        it to bound how many data symbols a match may delete within its
        budget.  ``0.0`` is always sound: nothing limits the deletions,
        so the bound looks at the whole trajectory side.  Models with a
        positive floor override it."""
        return 0.0

    def sub_row(self, p: int, seq: Sequence[int]) -> List[float]:
        """``[sub(p, s) for s in seq]`` — override for faster models.

        The verifier calls this once per walked data symbol per query,
        with ``seq`` the whole query (the row is cached on the query's
        warm-state entry, :class:`repro.core.trie.TrieCacheEntry`, and
        each direction reads its part of it), so an override must cost
        each element of ``seq`` on its own."""
        s = self.sub
        return [s(p, q) for q in seq]

    # -- filtering hooks (§3.1) -------------------------------------------

    def neighbors(self, q: int) -> List[int]:
        """Substitution neighborhood ``B(q)`` (Definition 4).

        Always contains ``q`` itself since ``sub(q, q) == 0 <= eta``."""
        return [q]

    def filter_cost(self, q: int) -> float:
        """``c(q)``: the minimum cost of deleting ``q`` or substituting it
        with a symbol outside ``B(q)`` (Eq. 7)."""
        return self.ins(q)


# ---------------------------------------------------------------------------
# Coordinate-free instance
# ---------------------------------------------------------------------------


class LevenshteinCost(CostModel):
    """Unit-cost edit distance (Eq. 1); works on either representation."""

    name = "Lev"

    def __init__(self, representation: str = "vertex") -> None:
        self.representation = representation

    def sub(self, a: int, b: int) -> float:
        return 0.0 if a == b else 1.0

    def ins(self, a: int) -> float:
        return 1.0

    def sub_row(self, p: int, seq: Sequence[int]) -> List[float]:
        return [0.0 if p == q else 1.0 for q in seq]

    def deletion_floor(self) -> float:
        return 1.0

    def filter_cost(self, q: int) -> float:
        return 1.0


# ---------------------------------------------------------------------------
# Coordinate-based instances (EDR, ERP)
# ---------------------------------------------------------------------------


class _CoordinateModel(CostModel):
    """Shared machinery: vertex coordinates + kd-tree for range queries."""

    def __init__(self, graph: RoadNetwork) -> None:
        self.representation = "vertex"
        self._graph = graph
        self._coords = list(graph.coords)
        self._tree = KDTree(self._coords)

    @property
    def alphabet_size(self) -> int:
        return len(self._coords)

    def _distance(self, a: int, b: int) -> float:
        return euclidean(self._coords[a], self._coords[b])


class EDRCost(_CoordinateModel):
    """Edit distance on real sequences (Eq. 2): unit costs, substitution is
    free within matching threshold ``epsilon``.

    ``B(q)`` with the paper's ``eta = 0`` is the epsilon-ball around ``q``;
    ``c(q) = 1`` because any edit leaving the ball costs one unit.
    """

    name = "EDR"

    def __init__(self, graph: RoadNetwork, epsilon: float) -> None:
        if epsilon < 0:
            raise CostModelError("EDR epsilon must be nonnegative")
        super().__init__(graph)
        self.epsilon = epsilon

    def sub(self, a: int, b: int) -> float:
        # Same squared-distance comparison as sub_row and neighbors, so
        # the anchor cost, the DP rows and B(q) agree on boundary cases.
        (ax, ay), (bx, by) = self._coords[a], self._coords[b]
        dx = ax - bx
        dy = ay - by
        return 0.0 if dx * dx + dy * dy <= self.epsilon * self.epsilon else 1.0

    def ins(self, a: int) -> float:
        return 1.0

    def sub_row(self, p: int, seq: Sequence[int]) -> List[float]:
        px, py = self._coords[p]
        eps2 = self.epsilon * self.epsilon
        out = []
        coords = self._coords
        for q in seq:
            qx, qy = coords[q]
            dx = px - qx
            dy = py - qy
            out.append(0.0 if dx * dx + dy * dy <= eps2 else 1.0)
        return out

    def deletion_floor(self) -> float:
        return 1.0

    def neighbors(self, q: int) -> List[int]:
        # B(q) must be exactly {b : sub(q, b) == 0} or the subsequence
        # filter loses soundness at the epsilon boundary; the kd-tree's
        # hypot-based search is padded a few ulps and then filtered with
        # the DP's own squared-distance predicate.
        cx, cy = self._coords[q]
        eps = self.epsilon
        eps2 = eps * eps
        coords = self._coords
        out = []
        for b in self._tree.range_search((cx, cy), padded_radius(eps)):
            dx = cx - coords[b][0]
            dy = cy - coords[b][1]
            if dx * dx + dy * dy <= eps2:
                out.append(b)
        return out

    def filter_cost(self, q: int) -> float:
        return 1.0


class ERPCost(_CoordinateModel):
    """Edit distance with real penalty (Eq. 3): substitution costs the
    Euclidean distance; insertion/deletion cost the distance to a reference
    point ``g`` (defaults to the barycenter of all vertices — §2.2.2).

    ``eta`` must be a small positive number for continuous costs (§3.1,
    App. D); ``B(q)`` is the eta-ball and ``c(q)`` is the cheaper of deleting
    ``q`` or substituting it with the nearest vertex outside the ball.
    """

    name = "ERP"

    def __init__(
        self,
        graph: RoadNetwork,
        *,
        eta: float = 0.0,
        reference: Optional[Point] = None,
    ) -> None:
        if eta < 0:
            raise CostModelError("ERP eta must be nonnegative")
        super().__init__(graph)
        self.eta = eta
        self._g: Point = reference if reference is not None else centroid(self._coords)
        gx, gy = self._g
        coords = np.asarray(self._coords, dtype=np.float64)
        # δ: the nearest vertex's distance to g, 0.0 when g sits on one.
        self._deletion_floor = (
            float(np.hypot(coords[:, 0] - gx, coords[:, 1] - gy).min())
            if len(coords)
            else 0.0
        )

    @property
    def reference(self) -> Point:
        """The ERP reference point ``g``."""
        return self._g

    def sub(self, a: int, b: int) -> float:
        return self._distance(a, b)

    def ins(self, a: int) -> float:
        return euclidean(self._coords[a], self._g)

    def deletion_floor(self) -> float:
        return self._deletion_floor

    def sub_row(self, p: int, seq: Sequence[int]) -> List[float]:
        px, py = self._coords[p]
        coords = self._coords
        return [math.hypot(px - coords[q][0], py - coords[q][1]) for q in seq]

    def neighbors(self, q: int) -> List[int]:
        return self._tree.range_search(self._coords[q], self.eta)

    def filter_cost(self, q: int) -> float:
        best = self.ins(q)  # deleting q (sub(q, eps)) is always allowed
        hit = self._tree.nearest_outside(self._coords[q], self.eta)
        if hit is not None:
            best = min(best, hit[1])
        return best


# ---------------------------------------------------------------------------
# Network-aware instances (NetEDR, NetERP, SURS) — §2.2.3
# ---------------------------------------------------------------------------


def _smallest_distance_outside(graph: RoadNetwork, source: int, eta: float) -> float:
    """The smallest shortest-path distance from ``source`` strictly greater
    than ``eta`` (``inf`` when everything reachable lies within ``eta``).

    This is the NetERP substitution part of ``c(q)``: the cheapest
    substitution landing outside ``B(q)``.
    """
    dist: Dict[int, float] = {source: 0.0}
    heap: List[Tuple[float, int]] = [(0.0, source)]
    while heap:
        d, u = heapq.heappop(heap)
        if d > dist.get(u, math.inf):
            continue
        if d > eta:
            return d  # first settled vertex beyond eta is the closest one
        for e in graph.out_edges(u):
            nd = d + e.weight
            if nd < dist.get(e.target, math.inf):
                dist[e.target] = nd
                heapq.heappush(heap, (nd, e.target))
    return math.inf


class _NetworkModel(CostModel):
    """Shared machinery for shortest-path-distance models.

    Distances are computed on an undirected view of the graph (symmetry fix,
    §2.2.3) and answered by hub labeling (exact, built once), memoized.
    """

    def __init__(self, graph: RoadNetwork) -> None:
        self.representation = "vertex"
        self._graph = graph.undirected()
        self._oracle = HubLabeling(self._graph)
        self._cache: Dict[Tuple[int, int], float] = {}

    @property
    def alphabet_size(self) -> int:
        return self._graph.num_vertices

    def network_distance(self, a: int, b: int) -> float:
        """Memoized undirected shortest-path distance between vertices."""
        if a == b:
            return 0.0
        key = (a, b) if a <= b else (b, a)
        d = self._cache.get(key)
        if d is None:
            d = self._cache[key] = self._oracle.query(key[0], key[1])
        return d


class NetEDRCost(_NetworkModel):
    """EDR with shortest-path distance in place of Euclidean (§2.2.3)."""

    name = "NetEDR"

    def __init__(self, graph: RoadNetwork, epsilon: Optional[float] = None) -> None:
        super().__init__(graph)
        # Paper default (§6.1): epsilon = median edge weight.
        self.epsilon = graph.median_edge_weight() if epsilon is None else epsilon
        if self.epsilon < 0:
            raise CostModelError("NetEDR epsilon must be nonnegative")

    def sub(self, a: int, b: int) -> float:
        return 0.0 if self.network_distance(a, b) <= self.epsilon else 1.0

    def ins(self, a: int) -> float:
        return 1.0

    def deletion_floor(self) -> float:
        return 1.0

    def neighbors(self, q: int) -> List[int]:
        return sorted(bounded_dijkstra(self._graph, q, self.epsilon))

    def filter_cost(self, q: int) -> float:
        return 1.0


class NetERPCost(_NetworkModel):
    """ERP with shortest-path distance; constant insertion/deletion cost
    ``g_del`` replaces the reference point (§2.2.3 — this makes NetERP
    non-metric, which the method tolerates)."""

    name = "NetERP"

    def __init__(
        self,
        graph: RoadNetwork,
        g_del: float,
        *,
        eta: Optional[float] = None,
    ) -> None:
        if g_del <= 0:
            raise CostModelError("NetERP deletion cost must be positive")
        super().__init__(graph)
        self.g_del = g_del
        # Paper default (§6.1 / App. D): eta = median edge weight.
        self.eta = graph.median_edge_weight() if eta is None else eta
        if self.eta < 0:
            raise CostModelError("NetERP eta must be nonnegative")

    def sub(self, a: int, b: int) -> float:
        return self.network_distance(a, b)

    def ins(self, a: int) -> float:
        return self.g_del

    def deletion_floor(self) -> float:
        return self.g_del

    def neighbors(self, q: int) -> List[int]:
        return sorted(bounded_dijkstra(self._graph, q, self.eta))

    def filter_cost(self, q: int) -> float:
        return min(self.g_del, _smallest_distance_outside(self._graph, q, self.eta))


class SURSCost(CostModel):
    """Shortest unshared road segments (Eq. 4) over the edge alphabet.

    ``sub(a,b) = w(a) + w(b)`` makes substitution equivalent to a deletion
    plus an insertion, so WED totals the travel cost of edges not shared by
    the two trajectories, order-sensitively (Example 1).  With the paper's
    ``eta = 0``, ``B(q) = {q}`` and ``c(q) = w(q)``.
    """

    name = "SURS"

    def __init__(self, graph: RoadNetwork) -> None:
        self.representation = "edge"
        self._weights = [e.weight for e in graph.edges]

    @property
    def alphabet_size(self) -> int:
        return len(self._weights)

    def sub(self, a: int, b: int) -> float:
        return 0.0 if a == b else self._weights[a] + self._weights[b]

    def ins(self, a: int) -> float:
        return self._weights[a]

    def deletion_floor(self) -> float:
        return min(self._weights, default=0.0)

    def sub_row(self, p: int, seq: Sequence[int]) -> List[float]:
        w = self._weights
        wp = w[p]
        return [0.0 if p == q else wp + w[q] for q in seq]

    def filter_cost(self, q: int) -> float:
        return self._weights[q]


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------


def validate_cost_model(
    model: CostModel,
    symbols: Sequence[int],
    *,
    tolerance: float = 1e-9,
) -> None:
    """Spot-check the WED assumptions (§2.2.1) on a sample of symbols.

    Raises :class:`CostModelError` on the first violation.  Checks:
    nonnegativity, ``sub(a,a) == 0``, symmetry, ``ins == del``,
    ``del(a) >= deletion_floor()``, and that
    ``neighbors``/``filter_cost`` are mutually consistent: every ``b`` in
    ``B(q)`` is not an admissible target for ``c(q)``, i.e.
    ``c(q) <= sub(q, b')`` for sampled ``b'`` outside ``B(q)`` and
    ``c(q) <= del(q)``.
    """
    floor = model.deletion_floor()
    if floor < 0:
        raise CostModelError(f"negative deletion_floor() {floor}")
    for a in symbols:
        if model.sub(a, a) > tolerance:
            raise CostModelError(f"sub({a},{a}) != 0")
        if model.ins(a) < 0 or model.delete(a) < 0:
            raise CostModelError(f"negative ins/del cost at {a}")
        if abs(model.ins(a) - model.delete(a)) > tolerance:
            raise CostModelError(f"ins({a}) != del({a})")
        if model.delete(a) + tolerance < floor:
            raise CostModelError(
                f"del({a})={model.delete(a)} is below deletion_floor()={floor}"
            )
        for b in symbols:
            sab = model.sub(a, b)
            if sab < 0:
                raise CostModelError(f"negative sub({a},{b})")
            if abs(sab - model.sub(b, a)) > tolerance:
                raise CostModelError(f"sub({a},{b}) asymmetric")
    for q in symbols:
        neigh = set(model.neighbors(q))
        if q not in neigh:
            raise CostModelError(f"{q} not in its own neighborhood")
        cq = model.filter_cost(q)
        if cq < 0:
            raise CostModelError(f"negative filter cost c({q})")
        if cq > model.delete(q) + tolerance:
            raise CostModelError(f"c({q}) exceeds deletion cost")
        for b in symbols:
            if b not in neigh and model.sub(q, b) + tolerance < cq:
                raise CostModelError(
                    f"c({q})={cq} not a lower bound: sub({q},{b})={model.sub(q, b)}"
                )
