"""Cost models defining weighted edit distances (§2.2).

A :class:`CostModel` supplies the three edit-operation costs
``ins`` / ``del`` / ``sub`` over an integer symbol alphabet (vertex ids or
edge ids), plus the two filtering hooks the search engine needs:

- ``neighbors(q)`` — the substitution neighborhood ``B(q)`` (Definition 4):
  all symbols ``b`` with ``sub(q, b) <= eta``;
- ``filter_cost(q)`` — ``c(q) = min over q' in Sigma+ \\ B(q) of sub(q, q')``
  (Eq. 7), the guaranteed cost of editing ``q`` away without landing in its
  neighborhood.

The WED assumptions (§2.2.1) must hold: ``sub(a,b) >= 0``, symmetry
``sub(a,b) == sub(b,a)`` (hence ``ins(a) == del(a)``), and ``sub(a,a) == 0``.
:func:`validate_cost_model` spot-checks them.

Six instances are provided: Levenshtein, EDR, ERP (coordinate-based), and
NetEDR, NetERP, SURS (network-aware, §2.2.3).  Network distances run on an
undirected view of the graph — the paper's fix for the asymmetry of directed
shortest paths — and are answered by a hub-labeling oracle when available,
falling back to cached bidirectional Dijkstra.
"""

from __future__ import annotations

import heapq
import math
import threading
from abc import ABC, abstractmethod
from typing import Dict, Hashable, List, Optional, Sequence, Tuple

import numpy as np

from repro.exceptions import CostModelError
from repro.network.graph import RoadNetwork
from repro.network.hub_labeling import HubLabeling
from repro.network.shortest_path import bidirectional_dijkstra, bounded_dijkstra
from repro.spatial.geometry import Point, centroid, euclidean, padded_radius
from repro.spatial.kdtree import KDTree

__all__ = [
    "CostModel",
    "DirectionRows",
    "EDRCost",
    "ERPCost",
    "LevenshteinCost",
    "NetEDRCost",
    "NetERPCost",
    "SURSCost",
    "SubstitutionMatrix",
    "validate_cost_model",
]


class DirectionRows:
    """Per-direction substitution costs, stored *dense and slot-indexed*.

    The verifier's DP consumes, per visited data symbol, the symbol's
    substitution row restricted to one *query part* (forward suffix or
    reversed backward prefix of the query) plus its deletion cost.  Each
    distinct symbol gets an integer *slot* on first touch; its row (a
    contiguous copy of the possibly negative-stride full-row slice) lands
    in row ``slot`` of one growable matrix, with the deletion cost in a
    parallel vector.  Batch assembly then gathers a whole round of rows
    with two ``np.take`` calls instead of one numpy ``__setitem__`` per
    cache miss — the per-miss copy loop used to be the largest
    non-kernel cost of batched verification.

    Instances are owned by (and cached inside) the
    :class:`SubstitutionMatrix`, so when the engine's warm-query cache
    serves a repeated query, the per-direction dense copies are reused
    too — not just the full rows.
    """

    __slots__ = (
        "_matrix",
        "_slice",
        "_lock",
        "index",
        "rows",
        "deletes",
    )

    def __init__(
        self, matrix: "SubstitutionMatrix", row_slice: slice, width: int
    ) -> None:
        self._matrix = matrix
        self._slice = row_slice
        #: serializes first-touch slot assignment/growth; readers stay
        #: lock-free (see :meth:`slot`).
        self._lock = threading.Lock()
        #: symbol -> dense slot; the verifier's walker reads it inline
        #: (one dict hit per cache miss) and calls :meth:`slot` only on
        #: first touch of a symbol.
        self.index: Dict[int, int] = {}
        self.rows = np.empty((16, width), dtype=np.float64)
        self.deletes = np.empty(16, dtype=np.float64)

    def slot(self, symbol: int) -> int:
        """The dense row slot for ``symbol`` (computed on first touch).

        Shared across concurrent query threads (the engine's warm-query
        cache hands one instance to every verifier of a repeated query), so
        writes are serialized: the slot is assigned, its row and delete
        written, and only then published in ``index`` — a lock-free
        reader either misses (and comes here) or sees a fully written
        row.  Growth publishes the grown buffers *before* writing the new
        row, so any slot a reader has seen is present in whatever
        ``rows``/``deletes`` arrays it fetches afterwards.
        """
        i = self.index.get(symbol)
        if i is None:
            with self._lock:
                i = self.index.get(symbol)
                if i is None:
                    matrix = self._matrix
                    i = len(self.index)
                    if i == len(self.rows):
                        grown = np.empty(
                            (2 * i, self.rows.shape[1]), dtype=np.float64
                        )
                        grown[:i] = self.rows
                        grown_d = np.empty(2 * i, dtype=np.float64)
                        grown_d[:i] = self.deletes
                        self.rows = grown
                        self.deletes = grown_d
                    self.rows[i] = matrix.row(symbol)[self._slice]
                    self.deletes[i] = matrix.delete(symbol)
                    self.index[symbol] = i
        return i

    def get(self, symbol: int) -> Tuple[np.ndarray, float]:
        """This direction's ``(substitution row, delete cost)`` views."""
        i = self.slot(symbol)
        return self.rows[i], float(self.deletes[i])

    def __len__(self) -> int:
        return len(self.index)

    @property
    def nbytes(self) -> int:
        """Bytes of the dense row and delete tables (their capacity)."""
        return self.rows.nbytes + self.deletes.nbytes


class SubstitutionMatrix:
    """Per-query substitution costs served as ``np.ndarray`` rows.

    ``row(b)[i] == sub(b, query[i])`` for the fixed query this table was
    built for.  The verifier's DP consumes one row per visited data symbol
    (Algorithm 6), so rows are computed once per distinct symbol — via the
    model's vectorized :meth:`CostModel.sub_row_array` — and then served as
    cached arrays whose *slices* (forward / reversed-backward query parts)
    are zero-copy views.

    ``anchors`` optionally names symbols whose rows are precomputed into
    one dense matrix up front — the engine passes the union of the chosen
    tau-subsequence's substitution neighborhoods, i.e. every symbol that
    can appear at a candidate's anchor position.  All other symbols (the
    alphabet may be unbounded) fall back to a per-symbol dict cache filled
    on first touch.

    ``delete(b)`` memoizes the deletion cost alongside, since it is needed
    once per DP column as well.

    A matrix depends only on the query and the cost-model configuration —
    never on the dataset, the threshold or the time window — so the engine
    keeps it across queries inside the query's
    :class:`~repro.core.trie.TrieCacheEntry`, whose byte budget counts it
    through :attr:`nbytes`.  It is therefore shared by concurrent server
    threads: the plain row dicts tolerate concurrent lazy fills (dict
    updates are atomic under the GIL; a benign race recomputes a row at
    worst), and the slot-indexed :class:`DirectionRows` tables serialize
    their first-touch writes — see :meth:`DirectionRows.slot`.
    """

    __slots__ = (
        "_costs",
        "_query",
        "_rows",
        "_deletes",
        "_directions",
        "dense_rows",
    )

    def __init__(
        self,
        costs: "CostModel",
        query: Sequence[int],
        *,
        anchors: Optional[Sequence[int]] = None,
    ) -> None:
        self._costs = costs
        self._query = tuple(query)
        self._rows: Dict[int, np.ndarray] = {}
        self._deletes: Dict[int, float] = {}
        self._directions: Dict[Hashable, DirectionRows] = {}
        #: number of rows precomputed densely from ``anchors``
        self.dense_rows = 0
        if anchors:
            uniq = list(dict.fromkeys(int(b) for b in anchors))
            dense = np.empty((len(uniq), len(self._query)), dtype=np.float64)
            for i, b in enumerate(uniq):
                dense[i] = costs.sub_row_array(b, self._query)
                self._rows[b] = dense[i]  # a view: keeps ``dense`` alive
            self.dense_rows = len(uniq)

    @property
    def query(self) -> Tuple[int, ...]:
        """The query string the rows are computed against."""
        return self._query

    def row(self, symbol: int) -> np.ndarray:
        """``[sub(symbol, q) for q in query]`` as a cached float64 array."""
        r = self._rows.get(symbol)
        if r is None:
            r = self._costs.sub_row_array(symbol, self._query)
            self._rows[symbol] = r
        return r

    def delete(self, symbol: int) -> float:
        """Memoized deletion cost ``del(symbol)``."""
        d = self._deletes.get(symbol)
        if d is None:
            d = float(self._costs.delete(symbol))
            self._deletes[symbol] = d
        return d

    def direction_rows(self, key: Hashable, row_slice: slice) -> DirectionRows:
        """The :class:`DirectionRows` cache for one ``(iq, direction)``.

        ``key`` identifies the direction context (the verifier uses the
        ``(iq, direction)`` pair); the first caller fixes ``row_slice``
        for that key and later callers share the cached copies.
        """
        rows = self._directions.get(key)
        if rows is None:
            width = len(range(*row_slice.indices(len(self._query))))
            # setdefault: concurrent first callers converge on ONE
            # instance (slot tables must not fork between threads).
            rows = self._directions.setdefault(
                key, DirectionRows(self, row_slice, width)
            )
        return rows

    def cached_rows(self) -> int:
        """Distinct symbols with a materialized row (dense part included)."""
        return len(self._rows)

    @property
    def nbytes(self) -> int:
        """Array bytes this matrix pins, counted arithmetically (it is
        re-read after every verification): one float64 row of ``|Q|``
        per cached symbol plus every direction's dense tables."""
        directions = list(self._directions.values())
        return len(self._rows) * len(self._query) * 8 + sum(
            rows.nbytes for rows in directions
        )


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

    def sub_row(self, p: int, seq: Sequence[int]) -> List[float]:
        """``[sub(p, s) for s in seq]`` — override for vectorized models.

        This is the hot path of the pure-Python DP (one call per column)."""
        s = self.sub
        return [s(p, q) for q in seq]

    # -- array-native hooks (the arena walker's hot path) -------------------

    def sub_row_array(self, p: int, seq: Sequence[int]) -> np.ndarray:
        """:meth:`sub_row` as a float64 array — override for models whose
        row can be computed without a per-element Python loop.

        The array-native verifier calls this once per distinct symbol per
        query (rows are cached in a :class:`SubstitutionMatrix`), so even
        the default loop-and-wrap implementation is off the per-column
        hot path."""
        return np.asarray(self.sub_row(p, seq), dtype=np.float64)

    def ins_vector(self, seq: Sequence[int]) -> np.ndarray:
        """``[ins(q) for q in seq]`` as a float64 array (once per query).

        Deliberately *not* vectorized in subclasses: it runs once per
        query, and looping :meth:`ins` keeps the values bit-identical to
        the pure-Python DP's."""
        return np.fromiter((self.ins(q) for q in seq), dtype=np.float64, count=len(seq))

    def vectorized_rows(self) -> bool:
        """True when this model computes substitution rows without a
        per-element Python loop (it overrides :meth:`sub_row_array`).

        The engine's walker rule reads this as a cost proxy: vectorizable
        rows are cheap rows, and on cheap rows short queries cannot
        amortize the numpy kernel-launch overhead, so the pure-Python DP
        wins there.  Models without an override (the network-aware
        family, ERP) pay real work per row, which the array-native
        backend computes once per symbol per query instead of once per
        DP column — numpy wins at every query length."""
        return type(self).sub_row_array is not CostModel.sub_row_array

    def sub_matrix(
        self, query: Sequence[int], *, anchors: Optional[Sequence[int]] = None
    ) -> SubstitutionMatrix:
        """A per-query :class:`SubstitutionMatrix` over this model.

        ``anchors`` (e.g. the union of the query's substitution
        neighborhoods) selects symbols whose rows are precomputed densely;
        everything else is cached on first touch."""
        return SubstitutionMatrix(self, query, anchors=anchors)

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

    def sub_row_array(self, p: int, seq: Sequence[int]) -> np.ndarray:
        return (np.asarray(seq, dtype=np.int64) != p).astype(np.float64)

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
        self._coords_arr = np.asarray(self._coords, dtype=np.float64)
        self._tree = KDTree(self._coords)

    @property
    def alphabet_size(self) -> int:
        return len(self._coords)

    def _distance(self, a: int, b: int) -> float:
        return euclidean(self._coords[a], self._coords[b])

    def _seq_coords(self, seq: Sequence[int]) -> np.ndarray:
        """Coordinates of ``seq`` as an (n, 2) array."""
        return self._coords_arr[np.asarray(seq, dtype=np.intp)]


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
        # Same squared-distance comparison as the row forms below, so the
        # anchor cost and the DP rows agree on boundary cases regardless of
        # which backend computes which.
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

    def sub_row_array(self, p: int, seq: Sequence[int]) -> np.ndarray:
        # Same squared-distance comparison as sub_row, so both DP backends
        # see bit-identical rows.
        qc = self._seq_coords(seq)
        px, py = self._coords[p]
        d2 = (qc[:, 0] - px) ** 2 + (qc[:, 1] - py) ** 2
        return (d2 > self.epsilon * self.epsilon).astype(np.float64)

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

    @property
    def reference(self) -> Point:
        """The ERP reference point ``g``."""
        return self._g

    def sub(self, a: int, b: int) -> float:
        return self._distance(a, b)

    def ins(self, a: int) -> float:
        return euclidean(self._coords[a], self._g)

    def sub_row(self, p: int, seq: Sequence[int]) -> List[float]:
        px, py = self._coords[p]
        coords = self._coords
        return [math.hypot(px - coords[q][0], py - coords[q][1]) for q in seq]

    # No vectorized sub_row_array override: np.hypot (libm) and
    # math.hypot (correctly rounded) can differ by an ulp, which would
    # break the bit-identical-backends invariant; the default wraps the
    # math.hypot row, computed once per symbol per query anyway.

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
    §2.2.3) and answered by hub labeling when ``use_hub_labeling`` is set
    (exact, built once) or by memoized bidirectional Dijkstra otherwise.
    """

    def __init__(self, graph: RoadNetwork, *, use_hub_labeling: bool = True) -> None:
        self.representation = "vertex"
        self._graph = graph.undirected()
        self._oracle: Optional[HubLabeling] = (
            HubLabeling(self._graph) if use_hub_labeling else None
        )
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
            if self._oracle is not None:
                d = self._oracle.query(key[0], key[1])
            else:
                d = bidirectional_dijkstra(self._graph, key[0], key[1])
            self._cache[key] = d
        return d


class NetEDRCost(_NetworkModel):
    """EDR with shortest-path distance in place of Euclidean (§2.2.3)."""

    name = "NetEDR"

    def __init__(
        self,
        graph: RoadNetwork,
        epsilon: Optional[float] = None,
        *,
        use_hub_labeling: bool = True,
    ) -> None:
        super().__init__(graph, use_hub_labeling=use_hub_labeling)
        # Paper default (§6.1): epsilon = median edge weight.
        self.epsilon = graph.median_edge_weight() if epsilon is None else epsilon
        if self.epsilon < 0:
            raise CostModelError("NetEDR epsilon must be nonnegative")

    def sub(self, a: int, b: int) -> float:
        return 0.0 if self.network_distance(a, b) <= self.epsilon else 1.0

    def ins(self, a: int) -> float:
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
        use_hub_labeling: bool = True,
    ) -> None:
        if g_del <= 0:
            raise CostModelError("NetERP deletion cost must be positive")
        super().__init__(graph, use_hub_labeling=use_hub_labeling)
        self.g_del = g_del
        # Paper default (§6.1 / App. D): eta = median edge weight.
        self.eta = graph.median_edge_weight() if eta is None else eta
        if self.eta < 0:
            raise CostModelError("NetERP eta must be nonnegative")

    def sub(self, a: int, b: int) -> float:
        return self.network_distance(a, b)

    def ins(self, a: int) -> float:
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
        self._weights_arr = np.asarray(self._weights, dtype=np.float64)

    @property
    def alphabet_size(self) -> int:
        return len(self._weights)

    def sub(self, a: int, b: int) -> float:
        return 0.0 if a == b else self._weights[a] + self._weights[b]

    def ins(self, a: int) -> float:
        return self._weights[a]

    def sub_row(self, p: int, seq: Sequence[int]) -> List[float]:
        w = self._weights
        wp = w[p]
        return [0.0 if p == q else wp + w[q] for q in seq]

    def sub_row_array(self, p: int, seq: Sequence[int]) -> np.ndarray:
        idx = np.asarray(seq, dtype=np.intp)
        row = self._weights_arr[idx] + self._weights[p]
        row[idx == p] = 0.0
        return row

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
    nonnegativity, ``sub(a,a) == 0``, symmetry, ``ins == del``, and that
    ``neighbors``/``filter_cost`` are mutually consistent: every ``b`` in
    ``B(q)`` is not an admissible target for ``c(q)``, i.e.
    ``c(q) <= sub(q, b')`` for sampled ``b'`` outside ``B(q)`` and
    ``c(q) <= del(q)``.
    """
    for a in symbols:
        if model.sub(a, a) > tolerance:
            raise CostModelError(f"sub({a},{a}) != 0")
        if model.ins(a) < 0 or model.delete(a) < 0:
            raise CostModelError(f"negative ins/del cost at {a}")
        if abs(model.ins(a) - model.delete(a)) > tolerance:
            raise CostModelError(f"ins({a}) != del({a})")
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
