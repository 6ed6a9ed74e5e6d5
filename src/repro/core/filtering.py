"""Subsequence filtering (§3.1, Theorem 1).

For every query element ``q`` at position ``iq`` we precompute its
substitution neighborhood ``B(q)`` (Definition 4), its filtering cost
``c(q)`` (Eq. 7), and — given an inverted index — the number of candidate
postings ``N_q = sum over b in B(q) of n(b)``.  A subsequence ``Q'`` with
``c(Q') >= tau`` (a *tau-subsequence*) then certifies that any matching
subtrajectory shares at least one symbol with ``B(Q')``.

``B(q)`` and ``c(q)`` are computed in one place,
:class:`QueryNeighborhoods`, once per distinct query symbol.  The same
object holds the symbol-to-positions bitmasks the verifier's count bound
reads (:mod:`repro.core.verification`): every query element whose
neighborhood a match's data never touches costs that match at least
``c(q)``.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.invindex import InvertedIndex
from repro.distance.costs import CostModel
from repro.exceptions import QueryError

__all__ = [
    "QueryElement",
    "QueryNeighborhoods",
    "check_alphabet",
    "query_profile",
    "tau_from_ratio",
]


@dataclass(frozen=True, slots=True)
class QueryElement:
    """Per-position filtering data for one query symbol.

    ``position`` is ``iq`` (0-based index into the query), ``cost`` is
    ``c(q)``, ``neighborhood`` is ``B(q)``, and ``candidate_count`` is
    ``N_q`` (0 when no index was supplied).
    """

    position: int
    symbol: int
    cost: float
    neighborhood: Tuple[int, ...]
    candidate_count: int


#: The count bound's mask table is dense over the neighborhood symbols'
#: id range while that range holds at most this many ids per symbol in
#: it (a path's neighborhoods are local on a road network: 2-13 on the
#: benchmark grids); past it, symbols are looked up in the sorted keys,
#: so the table never grows with the size of the ids a request sends.
_DENSE_IDS_PER_KEY = 32

_INT64 = np.iinfo(np.int64)


class QueryNeighborhoods:
    """``B(q)`` and ``c(q)`` for one query, computed once per distinct
    symbol — the one place either is computed — and the count bound's
    lookup table, built from them on first :meth:`hits` call.

    Both depend on the query and the cost model only, never on the
    dataset, the threshold or the time window, so the query's
    :class:`~repro.core.trie.TrieCacheEntry` keeps them: a warm repeat
    calls no ``neighbors()`` at all (NetEDR's bounded Dijkstras
    included).
    """

    __slots__ = ("query", "by_symbol", "filter_costs", "_low", "_keys", "_masks")

    def __init__(self, costs: CostModel, query: Sequence[int]) -> None:
        self.query = tuple(query)
        #: symbol -> (B(q) unique and ordered, c(q))
        self.by_symbol: Dict[int, Tuple[Tuple[int, ...], float]] = {}
        for q in self.query:
            if q not in self.by_symbol:
                neigh = tuple(dict.fromkeys(costs.neighbors(q)))
                self.by_symbol[q] = (neigh, costs.filter_cost(q))
        #: ``c(q)`` per query position.
        self.filter_costs = np.array(
            [self.by_symbol[q][1] for q in self.query], dtype=np.float64
        )
        self._low = 0
        self._keys: Optional[np.ndarray] = None
        self._masks: Optional[np.ndarray] = None

    def hits(self, symbols: np.ndarray) -> np.ndarray:
        """``(len(symbols) + 1, words)`` bitmasks, one little-endian
        uint64 word per 64 query positions: bit ``i`` of row ``k`` is set
        iff ``symbols[k]`` is in ``B(query[i])``; the extra last row is
        zero."""
        if self._masks is None:
            self._build_masks()
        masks, keys = self._masks, self._keys
        zero = len(masks) - 1
        idx = np.empty(len(symbols) + 1, dtype=np.int64)
        idx[-1] = zero
        if keys is None:
            np.subtract(symbols, self._low, out=idx[:-1], dtype=np.int64)
            # Below ``low`` wraps to a huge unsigned value: one minimum
            # sends every symbol outside the range to the zero row.
            unsigned = idx.view(np.uint64)
            np.minimum(unsigned, zero, out=unsigned)
        else:
            pos = np.searchsorted(keys, symbols)
            np.minimum(pos, zero - 1, out=pos)
            idx[:-1] = np.where(keys[pos] == symbols, pos, zero)
        return masks[idx]

    def _build_masks(self) -> None:
        """One mask row per neighborhood symbol plus a zero row that every
        other symbol maps to: dense over the symbols' id range (row
        ``b - low``, a lookup is one ``take``) or, when that range is
        sparse, in sorted-key order (a ``searchsorted``, some twenty
        times slower)."""
        words = (len(self.query) + 63) // 64
        bits: Dict[int, List[int]] = {}
        for i, q in enumerate(self.query):
            for b in self.by_symbol[q][0]:
                # No trajectory symbol lies outside int64: such a b never hits.
                if _INT64.min <= b <= _INT64.max:
                    row = bits.get(b)
                    if row is None:
                        row = bits[b] = [0] * words
                    row[i >> 6] |= 1 << (i & 63)
        keys = sorted(bits)
        rows = np.array([bits[b] for b in keys] + [[0] * words], dtype="<u8")
        span = keys[-1] - keys[0] + 1 if keys else 0
        if span <= _DENSE_IDS_PER_KEY * len(keys):
            self._low = keys[0] if keys else 0
            self._masks = np.zeros((span + 1, words), dtype="<u8")
            self._masks[np.array(keys, dtype=np.int64) - self._low] = rows[:-1]
        else:
            self._keys = np.array(keys, dtype=np.int64)
            self._masks = rows

    @property
    def nbytes(self) -> int:
        """The neighborhood tuples, ``c(q)`` and the mask table, once
        built."""
        total = sys.getsizeof(self.by_symbol) + self.filter_costs.nbytes
        total += sum(sys.getsizeof(neigh) for neigh, _ in self.by_symbol.values())
        for array in (self._keys, self._masks):
            if array is not None:
                total += array.nbytes
        return total


def query_profile(
    query: Sequence[int],
    costs: CostModel,
    index: Optional[InvertedIndex] = None,
    neighborhoods: Optional[QueryNeighborhoods] = None,
) -> List[QueryElement]:
    """Compute :class:`QueryElement` for every position of ``query``.

    ``B(q)`` and ``c(q)`` come from ``neighborhoods`` (the engine passes
    the query's cached one), or from a fresh :class:`QueryNeighborhoods`;
    ``N_q`` is summed once per distinct symbol.
    """
    if len(query) == 0:
        raise QueryError("empty query")
    if neighborhoods is None:
        neighborhoods = QueryNeighborhoods(costs, query)
    counts: Dict[int, int] = {}
    out: List[QueryElement] = []
    for iq, q in enumerate(query):
        neigh, cq = neighborhoods.by_symbol[q]
        nq = counts.get(q)
        if nq is None:
            nq = counts[q] = (
                sum(index.frequency(b) for b in neigh) if index is not None else 0
            )
        out.append(QueryElement(iq, q, cq, neigh, nq))
    return out


def check_alphabet(query: Sequence[int], costs: CostModel) -> None:
    """Refuse query symbols a graph-bound model has no vertex or edge
    for: a negative id would be answered as ``size + id`` and one past
    the end is an ``IndexError`` deep in a cost call."""
    size = costs.alphabet_size
    strays = size is not None and sorted({q for q in query if not 0 <= q < size})
    if strays:
        raise QueryError(
            f"query symbols {strays} are outside the cost model's "
            f"alphabet 0..{size - 1}"
        )


def tau_from_ratio(query: Sequence[int], costs: CostModel, tau_ratio: float) -> float:
    """The paper's threshold parameterization (§6.1):
    ``tau = tau_ratio * sum over q in Q of c(q)``."""
    if not 0.0 <= tau_ratio <= 1.0:
        raise QueryError(f"tau_ratio must be in [0, 1], got {tau_ratio}")
    total = sum(costs.filter_cost(q) for q in query)
    return tau_ratio * total
