"""Subsequence filtering (§3.1, Theorem 1).

For every query element ``q`` at position ``iq`` we precompute its
substitution neighborhood ``B(q)`` (Definition 4), its filtering cost
``c(q)`` (Eq. 7), and — given an inverted index — the number of candidate
postings ``N_q = sum over b in B(q) of n(b)``.  A subsequence ``Q'`` with
``c(Q') >= tau`` (a *tau-subsequence*) then certifies that any matching
subtrajectory shares at least one symbol with ``B(Q')``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.core.invindex import InvertedIndex
from repro.distance.costs import CostModel
from repro.exceptions import QueryError

__all__ = ["QueryElement", "check_alphabet", "query_profile", "tau_from_ratio"]


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


def query_profile(
    query: Sequence[int],
    costs: CostModel,
    index: Optional[InvertedIndex] = None,
) -> List[QueryElement]:
    """Compute :class:`QueryElement` for every position of ``query``.

    Neighborhoods and filter costs are memoized per distinct symbol, so
    repeated vertices in the query are profiled once.
    """
    if len(query) == 0:
        raise QueryError("empty query")
    cache: dict = {}
    out: List[QueryElement] = []
    for iq, q in enumerate(query):
        entry = cache.get(q)
        if entry is None:
            neigh = tuple(dict.fromkeys(costs.neighbors(q)))  # unique, ordered
            cq = costs.filter_cost(q)
            nq = sum(index.frequency(b) for b in neigh) if index is not None else 0
            entry = (neigh, cq, nq)
            cache[q] = entry
        neigh, cq, nq = entry
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
