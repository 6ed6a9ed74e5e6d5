"""Shared helpers for the application layer."""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from repro.core.invindex import InvertedIndex
from repro.core.results import best_match_per_trajectory  # re-exported
from repro.trajectory.dataset import TrajectoryDataset

__all__ = ["best_match_per_trajectory", "find_exact_occurrences", "match_travel_time"]


def find_exact_occurrences(
    dataset: TrajectoryDataset,
    query: Sequence[int],
    index: Optional[InvertedIndex] = None,
) -> List[Tuple[int, int, int]]:
    """All ``(id, s, t)`` where ``query`` occurs as a contiguous substring.

    Uses the postings of the query's rarest symbol when an inverted index
    is supplied, otherwise scans the dataset.
    """
    q = tuple(query)
    if not q:
        return []
    out: List[Tuple[int, int, int]] = []
    if index is not None:
        anchor = min(range(len(q)), key=lambda i: index.frequency(q[i]))
        for tid, pos in index.postings(q[anchor]):
            s = pos - anchor
            t = s + len(q) - 1
            if s < 0:
                continue
            symbols = dataset.symbols(tid)
            if t < len(symbols) and tuple(symbols[s : t + 1]) == q:
                out.append((tid, s, t))
        out.sort()
        return out
    for tid in range(len(dataset)):
        symbols = tuple(dataset.symbols(tid))
        for s in range(len(symbols) - len(q) + 1):
            if symbols[s : s + len(q)] == q:
                out.append((tid, s, s + len(q) - 1))
    return out


def match_travel_time(dataset: TrajectoryDataset, tid: int, start: int, end: int) -> float:
    """Travel time spanned by a match; edge symbols span one extra vertex."""
    if dataset.representation == "edge":
        end = end + 1
    return dataset[tid].travel_time(start, end)
