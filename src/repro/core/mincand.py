"""The minimum-candidate problem (Definition 5) and its solvers.

Choosing the tau-subsequence ``Q'`` that minimizes the candidate count is
NP-hard (Proposition 2, by reduction from the Minimum Knapsack Problem).
Four selectors are provided:

- :func:`mincand_greedy` — Algorithm 1, the primal-dual 2-approximation of
  Carnes & Shmoys (Propositions 3 and 4: exact when ``c(q)`` is constant);
- :func:`mincand_exact` — brute-force optimum, for tests and small-query
  ablations;
- :func:`mincand_prefix` — DISON-style shortest prefix with
  ``sum c(q) >= tau`` (§6.1 baseline);
- :func:`mincand_all` — Torch-style "use every symbol" (§6.1 baseline).

All selectors return a subset of the supplied :class:`QueryElement` list
whose total filter cost reaches ``tau``, or raise
:class:`~repro.exceptions.QueryError` when no subsequence can (the
``c(Q) < tau`` degenerate case discussed in §3.1).
"""

from __future__ import annotations

from itertools import combinations
from typing import List, Sequence

from repro.core.filtering import QueryElement
from repro.exceptions import QueryError

__all__ = ["mincand_all", "mincand_exact", "mincand_greedy", "mincand_prefix"]

#: numerical slack for the greedy's price ties only.
#: Never for the ``c(Q') >= tau`` test itself: Theorem 1 needs the filter
#: costs to reach tau, and a subsequence 1e-12 short of it misses every
#: match costing exactly its ``c(Q')``.
_EPS = 1e-12


def _check_feasible(elements: Sequence[QueryElement], tau: float) -> None:
    if sum(e.cost for e in elements) < tau:
        raise QueryError(
            f"no tau-subsequence exists: sum of filter costs "
            f"{sum(e.cost for e in elements):.6g} < tau={tau:.6g} "
            "(for continuous cost functions, increase eta — §3.1)"
        )


def mincand_greedy(elements: Sequence[QueryElement], tau: float) -> List[QueryElement]:
    """Algorithm 1: greedily add the element with the best value-for-price.

    Maintains the dual weights ``w_q``; each round picks the element
    minimizing ``v_q = (N_q - w_q) / min(c_q, tau - c(Q'))`` and raises all
    remaining weights by ``min(c_q, tau - c(Q')) * v_{q*}``.
    """
    if tau <= 0:
        return []
    _check_feasible(elements, tau)
    remaining = [e for e in elements if e.cost > 0]
    w = {e.position: 0.0 for e in remaining}
    chosen: List[QueryElement] = []
    c_sum = 0.0
    # Running out of elements ends the loop too: then every element with
    # a cost is chosen, and _check_feasible summed them to tau already
    # (in position order — this sum's order may round it an ulp short).
    while c_sum < tau and remaining:
        slack = tau - c_sum
        best = None
        best_v = float("inf")
        for e in remaining:
            denom = min(e.cost, slack)
            v = (e.candidate_count - w[e.position]) / denom
            # Deterministic tie-break: earlier query position wins.
            if v < best_v - _EPS or (v < best_v + _EPS and (best is None or e.position < best.position)):
                best = e
                best_v = v
        if best is None:  # pragma: no cover - guarded by _check_feasible
            raise QueryError("greedy ran out of elements before reaching tau")
        for e in remaining:
            w[e.position] += min(e.cost, slack) * best_v
        remaining.remove(best)
        chosen.append(best)
        c_sum += best.cost
    return sorted(chosen, key=lambda e: e.position)


def mincand_exact(
    elements: Sequence[QueryElement],
    tau: float,
    *,
    max_elements: int = 20,
) -> List[QueryElement]:
    """Brute-force optimum of Definition 5 (test oracle).

    Enumerates subsets by increasing size and keeps the feasible subset with
    the smallest candidate count; refuses queries longer than
    ``max_elements`` to avoid exponential blowups in production use.
    """
    if tau <= 0:
        return []
    _check_feasible(elements, tau)
    if len(elements) > max_elements:
        raise QueryError(
            f"mincand_exact limited to {max_elements} elements, got {len(elements)}"
        )
    best: List[QueryElement] | None = None
    best_obj = float("inf")
    for r in range(1, len(elements) + 1):
        for subset in combinations(elements, r):
            if sum(e.cost for e in subset) < tau:
                continue
            obj = sum(e.candidate_count for e in subset)
            if obj < best_obj:
                best_obj = obj
                best = list(subset)
    assert best is not None  # feasibility checked above
    return sorted(best, key=lambda e: e.position)


def mincand_prefix(elements: Sequence[QueryElement], tau: float) -> List[QueryElement]:
    """DISON-style selector: the shortest *prefix* with ``c >= tau``."""
    if tau <= 0:
        return []
    _check_feasible(elements, tau)
    chosen: List[QueryElement] = []
    c_sum = 0.0
    for e in sorted(elements, key=lambda e: e.position):
        chosen.append(e)
        c_sum += e.cost
        if c_sum >= tau:
            return chosen
    return chosen  # pragma: no cover - guarded by _check_feasible


def mincand_all(elements: Sequence[QueryElement], tau: float) -> List[QueryElement]:
    """Torch-style selector: every query position (no optimization)."""
    del tau  # Torch scans postings for all symbols regardless of threshold
    return list(elements)
