"""Inverted index over trajectory symbols (§4.1) — the one mutable
postings store and the one dataset traversal.

One postings list per symbol; a posting is ``(trajectory_id, position)``.
Postings can optionally be ordered by trajectory departure time so that
temporal constraints can prune candidates with a binary search instead of a
scan (§4.3).

Under ``index_backend="dict"`` an :class:`InvertedIndex` is the engine's
whole index.  Under ``"frozen"`` (:mod:`repro.core.frozen`)
``FrozenInvertedIndex.freeze`` packs one into mmap-able arrays, and a
second one, started at the first trajectory the file does not cover
(``first_tid``), is the ``DeltaOverlayIndex``'s mutable front.  Both
backends return bit-identical query results (hypothesis-pinned in
``tests/test_core_frozen.py``).
"""

from __future__ import annotations

import bisect
import sys
import time
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.trajectory.dataset import TrajectoryDataset

__all__ = ["InvertedIndex"]

Posting = Tuple[int, int]  # (trajectory id, position)

_EMPTY: Tuple[Posting, ...] = ()


class InvertedIndex:
    """Postings lists ``L_q`` for every symbol occurring in the dataset.

    ``sort_by_departure=True`` orders each list by the owning trajectory's
    first timestamp and keeps a parallel key array for binary search —
    the paper's optimization for interval-constrained queries.
    ``first_tid`` skips the trajectories below it (the ones a frozen
    base already covers).
    """

    def __init__(
        self,
        dataset: TrajectoryDataset,
        *,
        sort_by_departure: bool = False,
        first_tid: int = 0,
    ) -> None:
        t0 = time.perf_counter()
        self._dataset = dataset
        self._sorted = sort_by_departure
        postings = self._walk(range(first_tid, len(dataset)))
        self._departures: Dict[int, List[float]] = {}
        if sort_by_departure:
            for sym, plist in postings.items():
                plist.sort(key=lambda p: dataset[p[0]].start_time)
                self._departures[sym] = [dataset[p[0]].start_time for p in plist]
        self._postings: Dict[int, Tuple[Posting, ...]] = {
            sym: tuple(plist) for sym, plist in postings.items()
        }
        self._num_postings = sum(len(p) for p in postings.values())
        # (posting count, bytes) of the last memory_bytes() walk stats() took.
        self._bytes_memo: Optional[Tuple[int, int]] = None
        self.build_seconds = time.perf_counter() - t0

    def _walk(self, tids: Iterable[int]) -> Dict[int, List[Posting]]:
        """The one dataset traversal: every symbol of ``tids``' trajectories
        with its ``(tid, position)`` postings, in id order."""
        found: Dict[int, List[Posting]] = {}
        for tid in tids:
            for pos, sym in enumerate(self._dataset.symbols(tid)):
                found.setdefault(sym, []).append((tid, pos))
        return found

    @property
    def sorted_by_departure(self) -> bool:
        """Whether postings are departure-ordered (closed to appends)."""
        return self._sorted

    # -- incremental updates (§4.1: append a record) -----------------------

    def append_trajectory(self, tid: int) -> None:
        """Index one trajectory that was appended to the dataset.

        Only valid for unsorted indexes — the sorted variant is built once
        over a closed dataset (it orders by departure time).

        Publication is atomic per *trajectory*: the new postings are
        staged aside and installed with a single ``dict.update``, so a
        concurrent lock-free reader either sees none of the trajectory's
        symbols or all of them — never a prefix whose candidate counts
        would disagree with the engine's already-published length tables.
        """
        if self._sorted:
            raise ValueError("cannot append to a departure-sorted index")
        current, added = self._postings, self._walk((tid,))
        current.update(
            {sym: current.get(sym, _EMPTY) + tuple(new) for sym, new in added.items()}
        )
        self._num_postings += sum(len(new) for new in added.values())

    # -- lookups ------------------------------------------------------------

    def postings(self, symbol: int) -> Sequence[Posting]:
        """``L_q``: every ``(id, position)`` where ``symbol`` occurs."""
        return self._postings.get(symbol, _EMPTY)

    def frequency(self, symbol: int) -> int:
        """``n(q)``: total occurrence count of ``symbol`` in the dataset."""
        return len(self._postings.get(symbol, _EMPTY))

    def postings_departing_before(self, symbol: int, latest: float) -> Sequence[Posting]:
        """Postings of trajectories departing at or before ``latest``.

        Requires ``sort_by_departure``; a trajectory departing after the end
        of the query interval cannot overlap it, so a binary search bounds
        the scan (§4.3).
        """
        if not self._sorted:
            raise ValueError("index not sorted by departure time")
        plist = self._postings.get(symbol, _EMPTY)
        if not plist:
            return _EMPTY
        hi = bisect.bisect_right(self._departures[symbol], latest)
        return plist[:hi]

    # -- introspection -----------------------------------------------------------

    def symbols(self) -> List[int]:
        """A snapshot of the distinct symbols with non-empty postings."""
        return list(self._postings)

    @property
    def num_symbols(self) -> int:
        """Distinct symbols with non-empty postings."""
        return len(self._postings)

    @property
    def num_postings(self) -> int:
        """Total posting count (== total symbols indexed)."""
        return self._num_postings

    def memory_bytes(self) -> int:
        """Rough memory footprint of the postings (index-size metric for
        Table 6)."""
        total = sys.getsizeof(self._postings)
        # A snapshot: append_trajectory publishes new symbols into the
        # live dict while a status probe walks it.  ``copy`` is one C call;
        # ``list(items())`` allocates a tuple per item, and a collection
        # those allocations trigger can hand the GIL to the inserter mid-walk.
        for sym, plist in self._postings.copy().items():
            total += sys.getsizeof(sym) + sys.getsizeof(plist)
            total += sum(sys.getsizeof(p) for p in plist)
        return total

    def stats(self) -> Dict[str, Any]:
        """Counters for ``/healthz`` and the metrics collectors.  The
        byte figure is memoized on the posting count, so repeated probes
        of an unchanged index skip the O(postings) size walk."""
        num, memo = self._num_postings, self._bytes_memo
        if memo is None or memo[0] != num:
            memo = self._bytes_memo = (num, self.memory_bytes())
        return {
            "backend": "dict",
            "num_symbols": self.num_symbols,
            "num_postings": num,
            "bytes": memo[1],
            "mmap": False,
            # The frozen tier's counters, zero here: every index reports
            # the same ones, so the cross-shard totals have one shape.
            "delta_postings": 0,
            "file_bytes": 0,
            "resident_bytes": 0,
        }
