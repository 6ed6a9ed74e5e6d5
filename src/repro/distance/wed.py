"""Weighted edit distance by dynamic programming (§2.2.1).

``wed(P, Q)`` is defined recursively with user-supplied edit costs and
computed in ``O(|P| * |Q|)``.  :func:`wed_within` adds the standard
threshold early exit (stop as soon as every cell of a row reaches ``tau``),
used by the whole-matching baselines.

Floating-point convention
-------------------------
Every DP step in this repo goes through :func:`wed_step_min` (the
Smith–Waterman oracle, the whole-matching baselines, the alignment
backtrace and the verifier's Python kernel; Algorithm 7's
``best_match`` computes its cells the same way while carrying match
starts, and the verifier's C kernel, ``repro/core/_wedkernel.c``, does
too, checked against this function before first use), which evaluates
the textbook recurrence in one fixed order:

    C[j] = min(B'[j-1] + sub[j], B'[j] + del)
    B[j] = min(C[j], B[j-1] + ins[j])

where ``B'`` is the previous row, ``sub`` / ``ins`` are the query's
substitution and insertion costs and ``del`` the data symbol's deletion
cost.  Each cell adds one operation's cost to one earlier cell, so a DP
value is the smallest, over alignment paths, of a path's costs added
left to right in floats (an insertion adds exactly ``ins(q)``).  One
evaluation order everywhere gives a DP column the same floats whichever
caller computes it, so trie and local verification, warm and cold
caches, and the oracles' DPs agree bit for bit; how the verifier then
adds its two directions is in :mod:`repro.core.verification`.
"""

from __future__ import annotations

import math
from typing import List, Sequence, Tuple

from repro.distance.costs import CostModel

__all__ = ["wed", "wed_row_init", "wed_step_min", "wed_within"]


def wed_row_init(costs: CostModel, query: Sequence[int]) -> List[float]:
    """The DP row for the empty data string: ``wed(eps, Q_{1:j})`` —
    the query prefix's insertion costs, summed left to right."""
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
) -> Tuple[List[float], float]:
    """One DP step plus the running row minimum, in a single pass.

    ``prev_row[j] = wed(P_{1:k}, Q_{1:j})`` in, the same for ``k+1`` out,
    as ``(row, min(row))``.  The minimum is the Eq. 11 lower bound the
    thresholded callers (:func:`wed_within`, the Smith–Waterman oracle,
    the verifier) test after every step; tracking it inside the DP loop
    replaces a separate O(|Q|) ``min(row)`` scan per step with one
    comparison per cell.

    ``sub_row`` / ``ins_row`` may carry precomputed costs: the
    symbol's substitution row and ``[ins(q) for q in query]``.  Every
    caller in the repo passes ``ins_row``, computed once per query; the
    verifier's ``sub_row`` is its direction's part of the query's cached
    row.
    """
    if sub_row is None:
        sub_row = costs.sub_row(symbol, query)
    if ins_row is None:
        ins_row = [costs.ins(q) for q in query]
    dele = costs.delete(symbol)
    best = prev_row[0] + dele
    row = [best]
    row_min = best
    for j in range(len(query)):
        c = prev_row[j] + sub_row[j]
        via_del = prev_row[j + 1] + dele
        if via_del < c:
            c = via_del
        via_ins = best + ins_row[j]
        best = via_ins if via_ins < c else c
        row.append(best)
        if best < row_min:
            row_min = best
    return row, row_min


def wed(data: Sequence[int], query: Sequence[int], costs: CostModel) -> float:
    """``wed(P, Q)`` for whole strings (either may be empty)."""
    ins_row = [costs.ins(q) for q in query]
    row = wed_row_init(costs, query)
    for p in data:
        row = wed_step_min(costs, query, p, row, ins_row=ins_row)[0]
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
    row = wed_row_init(costs, query)
    if min(row) >= tau:
        # Even the empty prefix cannot recover (row[-1] >= min(row) >= tau).
        return math.inf
    ins_row = [costs.ins(q) for q in query]
    for p in data:
        row, row_min = wed_step_min(costs, query, p, row, ins_row=ins_row)
        if row_min >= tau:
            return math.inf
    return row[-1] if row[-1] < tau else math.inf
