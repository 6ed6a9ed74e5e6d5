"""Smith–Waterman adapted to subtrajectory WED search (Appendix A).

Two entry points:

- :func:`best_match` — Algorithm 7: the single best-matching substring of a
  data string in ``O(|P| * |Q|)``, tracking match starts through the DP
  (the K matrix technique of [38]).
- :func:`all_matches` — the exhaustive oracle for Definition 3: *every*
  ``(s, t)`` with ``wed(P[s..t], Q) < tau``, via one thresholded DP per
  start position (the "naive solution" of §3 with the row-minimum early
  exit).  This is the ground truth the engine is tested against.

Indices in results are 0-based inclusive.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

from repro.distance.costs import CostModel
from repro.distance.wed import wed_row_init, wed_step_min

__all__ = ["Match", "all_matches", "best_match"]

#: A subtrajectory match: (start, end, distance), 0-based inclusive bounds.
Match = Tuple[int, int, float]


def best_match(data: Sequence[int], query: Sequence[int], costs: CostModel) -> Match:
    """The substring of ``data`` with minimum WED to ``query``.

    Returns ``(s, t, value)``; when the optimum aligns the whole query to
    insertions the match is empty and ``s == t + 1``.  Each cell is
    computed as in :func:`~repro.distance.wed.wed_step_min`, in its order,
    and carries the match start of the operation that set it.
    """
    nq = len(query)
    ins_row = [costs.ins(q) for q in query]
    # Column for the empty data prefix: D[i] = wed(eps, Q_{1:i}), start = 0.
    col = wed_row_init(costs, query)
    starts = [0] * (nq + 1)
    best_val = col[nq]
    best_s, best_t = 0, -1
    for j, p in enumerate(data):
        sub_row = costs.sub_row(p, query)
        dele = costs.delete(p)
        new_col = [0.0] * (nq + 1)
        new_starts = [0] * (nq + 1)
        new_starts[0] = j + 1  # empty match starting after position j
        for i in range(1, nq + 1):
            a = col[i - 1] + sub_row[i - 1]  # substitute
            b = col[i] + dele  # delete data symbol
            if a <= b:
                c_val, c_start = a, starts[i - 1]
            else:
                c_val, c_start = b, starts[i]
            via_ins = new_col[i - 1] + ins_row[i - 1]  # insert query symbol
            if via_ins < c_val:
                c_val, c_start = via_ins, new_starts[i - 1]
            new_col[i] = c_val
            new_starts[i] = c_start
        col, starts = new_col, new_starts
        if col[nq] < best_val:
            best_val = col[nq]
            best_s, best_t = starts[nq], j
    return best_s, best_t, best_val


def all_matches(
    data: Sequence[int],
    query: Sequence[int],
    costs: CostModel,
    tau: float,
) -> List[Match]:
    """All non-empty ``(s, t)`` with ``wed(data[s..t], query) < tau``.

    One thresholded DP per start position; the inner loop stops as soon as
    the row minimum (a monotone lower bound for every longer substring,
    Eq. 11) reaches ``tau``.  The minimum comes out of the DP step itself
    (:func:`~repro.distance.wed.wed_step_min`) rather than a separate
    O(|Q|) scan per step.  Worst case ``O(|P|^2 * |Q|)`` — this is the
    reference oracle, not the fast path.
    """
    if tau <= 0:
        return []
    out: List[Match] = []
    n = len(data)
    init = wed_row_init(costs, query)
    if min(init) >= tau:
        return []
    ins_row = [costs.ins(q) for q in query]
    for s in range(n):
        row = init
        for t in range(s, n):
            row, row_min = wed_step_min(costs, query, data[t], row, ins_row=ins_row)
            if row[-1] < tau:
                out.append((s, t, row[-1]))
            if row_min >= tau:
                break
    return out
