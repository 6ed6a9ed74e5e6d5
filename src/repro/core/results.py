"""Result types for subtrajectory similarity search (Definition 3).

A match identifies a subtrajectory ``P^(id)[start..end]`` (0-based,
inclusive) whose WED to the query is strictly below the threshold.  The
same ``(id, start, end)`` triple can be discovered through several
candidate anchors; :class:`MatchSet` deduplicates and keeps the smallest
distance found, which — by Lemma 1 — converges to the exact WED once all
candidates are verified.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Sequence, Tuple

__all__ = ["Match", "MatchSet", "best_match_per_trajectory"]


@dataclass(frozen=True, slots=True, order=True)
class Match:
    """One query answer ``(id, s, t)`` with its WED to the query."""

    trajectory_id: int
    start: int
    end: int
    distance: float

    @property
    def length(self) -> int:
        """Number of symbols in the matched subtrajectory."""
        return self.end - self.start + 1


def best_match_per_trajectory(matches: Sequence[Match]) -> Dict[int, Match]:
    """Pick one match per trajectory: smallest distance, then shortest
    subtrajectory, then earliest start (§6.2.1 tie-breaking)."""
    best: Dict[int, Match] = {}
    for m in matches:
        cur = best.get(m.trajectory_id)
        if cur is None or (m.distance, m.length, m.start) < (
            cur.distance,
            cur.length,
            cur.start,
        ):
            best[m.trajectory_id] = m
    return best


class MatchSet:
    """Deduplicating accumulator over ``(id, start, end)`` triples."""

    def __init__(self) -> None:
        self._best: Dict[Tuple[int, int, int], float] = {}

    def add(self, trajectory_id: int, start: int, end: int, distance: float) -> None:
        """Record a match, keeping the smallest distance per triple."""
        key = (trajectory_id, start, end)
        cur = self._best.get(key)
        if cur is None or distance < cur:
            self._best[key] = distance

    def __len__(self) -> int:
        return len(self._best)

    def __contains__(self, key: Tuple[int, int, int]) -> bool:
        return key in self._best

    def __iter__(self) -> Iterator[Match]:
        return iter(self.to_list())

    def to_list(self) -> List[Match]:
        """Matches sorted by (id, start, end) for deterministic output."""
        return [
            Match(tid, s, t, d)
            for (tid, s, t), d in sorted(self._best.items())
        ]

    def keys(self) -> List[Tuple[int, int, int]]:
        """Sorted (id, start, end) triples."""
        return sorted(self._best)
