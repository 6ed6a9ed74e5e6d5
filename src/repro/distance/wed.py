"""Weighted edit distance by dynamic programming (§2.2.1).

``wed(P, Q)`` is defined recursively with user-supplied edit costs and
computed in ``O(|P| * |Q|)``.  :func:`wed_within` adds the standard
threshold early exit (stop as soon as every cell of a row reaches ``tau``),
used by the whole-matching baselines.

Floating-point convention
-------------------------
Every DP step in this repo goes through :func:`wed_step_min` (the
verifier's walker, the Smith–Waterman oracle, the whole-matching
baselines), which evaluates the insertion chain in the *prefix-min* form

    B[j] = min(C[j], P[j] + min over i < j of (C[i] - P[i]))

where ``C[j]`` is the substitution/deletion candidate and ``P`` is the
cumulative insertion-cost prefix (``P[j] = P[j-1] + ins[j-1]``, summed left
to right).  In real arithmetic this equals the textbook recurrence
``B[j] = min(C[j], B[j-1] + ins[j])`` exactly; fixing one evaluation order
everywhere makes the verifier and the oracles produce *bit-identical*
floats, so the strict ``< tau`` match semantics of Definition 2 can never
disagree between them.  (The no-chain case stays exactly ``C[j]``.)
"""

from __future__ import annotations

import math
from typing import List, Sequence, Tuple

from repro.distance.costs import CostModel

__all__ = ["wed", "wed_row_init", "wed_step", "wed_step_min", "wed_within"]


def wed_row_init(costs: CostModel, query: Sequence[int]) -> List[float]:
    """The DP row for the empty data string: ``wed(eps, Q_{1:j})`` —
    cumulative insertion costs of the query prefix (this is also the
    insertion prefix ``P`` of the module's evaluation convention)."""
    row = [0.0]
    for q in query:
        row.append(row[-1] + costs.ins(q))
    return row


def wed_step_min(
    costs: CostModel,
    query: Sequence[int],
    symbol: int,
    prev_row: Sequence[float],
    *,
    sub_row: Sequence[float] | None = None,
    ins_row: Sequence[float] | None = None,
    ins_prefix: Sequence[float] | None = None,
) -> Tuple[List[float], float]:
    """One DP step plus the running row minimum, in a single pass.

    Returns ``(row, min(row))``.  The minimum is the Eq. 11 lower bound the
    thresholded callers (:func:`wed_within`, the Smith–Waterman oracle, the
    engine's scan fallback) test after every step; tracking it inside the
    DP loop replaces their separate ``min(row)`` scan — an O(|Q|) pass per
    step — with one comparison per cell.

    ``sub_row`` / ``ins_row`` / ``ins_prefix`` may carry precomputed
    per-query costs (``ins_prefix`` is :func:`wed_row_init`'s row; passing
    it saves rebuilding the prefix every step).  The verifier passes both:
    its ``sub_row`` comes from a per-direction cache, computed once per
    data symbol.
    """
    if sub_row is None:
        sub_row = costs.sub_row(symbol, query)
    dele = costs.delete(symbol)
    if ins_prefix is None:
        if ins_row is None:
            ins_row = [costs.ins(q) for q in query]
        prefix = [0.0]
        for c in ins_row:
            prefix.append(prefix[-1] + c)
        ins_prefix = prefix
    first = prev_row[0] + dele
    row = [first]
    row_min = first
    m = first - ins_prefix[0]
    for j in range(len(query)):
        c = prev_row[j] + sub_row[j]
        via_del = prev_row[j + 1] + dele
        if via_del < c:
            c = via_del
        chain = ins_prefix[j + 1] + m
        best = c if c <= chain else chain
        row.append(best)
        if best < row_min:
            row_min = best
        d = c - ins_prefix[j + 1]
        if d < m:
            m = d
    return row, row_min


def wed_step(
    costs: CostModel,
    query: Sequence[int],
    symbol: int,
    prev_row: Sequence[float],
    *,
    sub_row: Sequence[float] | None = None,
    ins_row: Sequence[float] | None = None,
    ins_prefix: Sequence[float] | None = None,
) -> List[float]:
    """One DP step: extend the data string by ``symbol``.

    ``prev_row[j] = wed(P_{1:k}, Q_{1:j})`` in, the same for ``k+1`` out.
    ``sub_row``/``ins_row``/``ins_prefix`` may carry precomputed per-query
    costs (hot path of verification — Algorithm 6 ``StepDP``).
    """
    return wed_step_min(
        costs,
        query,
        symbol,
        prev_row,
        sub_row=sub_row,
        ins_row=ins_row,
        ins_prefix=ins_prefix,
    )[0]


def wed(data: Sequence[int], query: Sequence[int], costs: CostModel) -> float:
    """``wed(P, Q)`` for whole strings (either may be empty)."""
    init = wed_row_init(costs, query)
    row: List[float] = init
    for p in data:
        row = wed_step(costs, query, p, row, ins_prefix=init)
    return row[-1]


def wed_within(
    data: Sequence[int],
    query: Sequence[int],
    costs: CostModel,
    tau: float,
) -> float:
    """``wed(P, Q)`` if it is < ``tau``, else ``math.inf``.

    Abandons the DP as soon as the row minimum reaches ``tau`` — the row
    minimum is a monotone lower bound on any extension (Eq. 11 applied to
    whole matching) and comes out of :func:`wed_step_min` for free.
    """
    init = wed_row_init(costs, query)
    row: List[float] = init
    if min(init) >= tau:
        # Even the empty prefix cannot recover (row[-1] >= min(row) >= tau).
        return math.inf
    for p in data:
        row, row_min = wed_step_min(costs, query, p, row, ins_prefix=init)
        if row_min >= tau:
            return math.inf
    return row[-1] if row[-1] < tau else math.inf
