"""Optimal alignment backtrace for WED.

Produces the explicit edit script behind ``wed(P, Q)`` — used by the SURS
example in the paper (Example 1: edges aligned to the gap symbol), by the
library's explanatory examples, and by tests that cross-check the DP value
against the summed cost of the script.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Literal, Optional, Sequence, Tuple

from repro.distance.costs import CostModel
from repro.distance.wed import wed_row_init, wed_step_min

__all__ = ["AlignmentOp", "align", "script_cost"]

OpKind = Literal["match", "sub", "del", "ins"]


@dataclass(frozen=True, slots=True)
class AlignmentOp:
    """One edit operation: ``kind`` with the symbols involved.

    ``data_symbol`` is ``None`` for insertions, ``query_symbol`` is ``None``
    for deletions; ``match`` is a zero-cost substitution.
    """

    kind: OpKind
    data_symbol: Optional[int]
    query_symbol: Optional[int]
    cost: float


def align(
    data: Sequence[int], query: Sequence[int], costs: CostModel
) -> Tuple[List[AlignmentOp], float]:
    """The optimal edit script converting ``query`` into ``data``.

    Ties are broken substitution-first, then deletion, then insertion, so
    the output is deterministic.  Returns ``(ops, total_cost)``; the
    matrix rows are :func:`~repro.distance.wed.wed_step_min`'s, so
    ``total_cost == wed(data, query)`` bit for bit.
    """
    m, n = len(data), len(query)
    # Full matrix: D[i][j] = wed(data[:i], query[:j]), one DP step per row.
    ins_row = [costs.ins(q) for q in query]
    dmat = [wed_row_init(costs, query)]
    for p in data:
        dmat.append(wed_step_min(costs, query, p, dmat[-1], ins_row=ins_row)[0])
    ops: List[AlignmentOp] = []
    i, j = m, n
    while i > 0 or j > 0:
        if i > 0 and j > 0:
            c = costs.sub(data[i - 1], query[j - 1])
            if abs(dmat[i][j] - (dmat[i - 1][j - 1] + c)) < 1e-12:
                kind: OpKind = "match" if c == 0.0 else "sub"
                ops.append(AlignmentOp(kind, data[i - 1], query[j - 1], c))
                i -= 1
                j -= 1
                continue
        if i > 0:
            c = costs.delete(data[i - 1])
            if abs(dmat[i][j] - (dmat[i - 1][j] + c)) < 1e-12:
                ops.append(AlignmentOp("del", data[i - 1], None, c))
                i -= 1
                continue
        c = costs.ins(query[j - 1])
        ops.append(AlignmentOp("ins", None, query[j - 1], c))
        j -= 1
    ops.reverse()
    return ops, dmat[m][n]


def script_cost(ops: Sequence[AlignmentOp]) -> float:
    """Total cost of an edit script."""
    return sum(op.cost for op in ops)
