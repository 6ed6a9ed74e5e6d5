"""LRU result cache for the serving layer.

Keys are the normalized query signatures of
:func:`repro.core.engine.query_signature`: two requests with the same
signature are guaranteed the same answer *on an unchanged dataset*, so a
cached :class:`~repro.core.engine.QueryResult` can be returned verbatim.
The "unchanged dataset" part is the caller's contract — the serving
facade clears the cache on every online update (insert today, delete when
the engine grows one).  Hits and misses are counted where requests are
recorded (the service's ``repro_queries_total{outcome}``), not here.

Cached results are shared objects: callers must treat them as immutable.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Any, Hashable, Optional

__all__ = ["ResultCache"]


class ResultCache:
    """A thread-safe LRU map from query signature to query result.

    ``capacity`` bounds the number of retained entries; inserting beyond it
    evicts the least-recently-*used* entry (a ``get`` refreshes recency).
    ``capacity=0`` disables retention entirely (every ``get`` misses).
    """

    def __init__(self, capacity: int = 1024) -> None:
        if capacity < 0:
            raise ValueError("cache capacity must be >= 0")
        self._capacity = capacity
        self._data: "OrderedDict[Hashable, Any]" = OrderedDict()
        self._lock = threading.Lock()
        self.invalidations = 0
        self._generation = 0

    @property
    def capacity(self) -> int:
        """Maximum number of retained entries."""
        return self._capacity

    @property
    def generation(self) -> int:
        """Bumped by every :meth:`clear`.  Capture it before computing a
        value and pass it to :meth:`put` to avoid re-caching a result that
        an invalidation raced past (compute started pre-clear, put lands
        post-clear)."""
        with self._lock:
            return self._generation

    def __len__(self) -> int:
        with self._lock:
            return len(self._data)

    def __contains__(self, key: Hashable) -> bool:
        with self._lock:
            return key in self._data

    def get(self, key: Hashable) -> Optional[Any]:
        """The cached value, refreshing its recency — or ``None``."""
        with self._lock:
            try:
                value = self._data[key]
            except KeyError:
                return None
            self._data.move_to_end(key)
            return value

    def put(
        self, key: Hashable, value: Any, *, generation: Optional[int] = None
    ) -> None:
        """Insert (or refresh) one entry, evicting LRU entries beyond
        capacity.

        When ``generation`` is given and a :meth:`clear` happened since it
        was captured, the value is stale (computed against the
        pre-invalidation dataset) and the put is dropped."""
        if self._capacity == 0:
            return
        with self._lock:
            if generation is not None and generation != self._generation:
                return
            self._data[key] = value
            self._data.move_to_end(key)
            while len(self._data) > self._capacity:
                self._data.popitem(last=False)

    # -- top-k reuse --------------------------------------------------------
    #
    # Top-k entries are keyed on repro.core.engine.topk_signature — which
    # deliberately excludes k — and hold a TopKResult.  The reuse rule: a
    # cached answer computed at k' covers a request for k when k <= k', or
    # when the stored answer already ranks the entire dataset (no deeper
    # answer exists); serving is then a truncation (TopKResult.at_k), so a
    # k'-deep computation pays for every shallower repeat.

    def get_topk(self, key: Hashable, k: int):
        """The cached top-k answer re-cut to ``k`` — or ``None`` when no
        entry exists or the stored one is too shallow to cover ``k``
        (either way the caller must compute)."""
        with self._lock:
            entry = self._data.get(key)
            if entry is None or not entry.covers(k):
                return None
            self._data.move_to_end(key)
            return entry.at_k(k)

    def put_topk(
        self, key: Hashable, value: Any, *, generation: Optional[int] = None
    ) -> None:
        """Insert one top-k answer unless an existing entry already covers
        it — a deeper (or full-ranking) answer must never be replaced by a
        shallower one computed concurrently.  Same generation guard as
        :meth:`put`."""
        if self._capacity == 0:
            return
        with self._lock:
            if generation is not None and generation != self._generation:
                return
            existing = self._data.get(key)
            if existing is not None and existing.covers(value.k):
                self._data.move_to_end(key)
                return
            self._data[key] = value
            self._data.move_to_end(key)
            while len(self._data) > self._capacity:
                self._data.popitem(last=False)

    # -- invalidation -------------------------------------------------------

    def clear(self) -> int:
        """Drop every entry (the online-update hook) and bump the
        generation; returns the count dropped."""
        with self._lock:
            dropped = len(self._data)
            self._data.clear()
            self.invalidations += dropped
            self._generation += 1
            return dropped
