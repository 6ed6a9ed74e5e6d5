"""DP-column tries for verification caching (§5.2).

Each trie caches the dynamic-programming columns produced while verifying
candidates in one direction (forward or backward) for one anchor position
``iq`` of the query.  A path from the root spells a sequence of data
symbols; the column reached at its end is the DP column ``A(x)`` for that
data prefix against the fixed query part ``Q^d``.  Because trajectories in
a road network share prefixes (out-degree is tiny), later candidates walk
cached columns instead of recomputing them — the cache-miss rate is the
CMR metric of §6.4.

One layout, :class:`VerificationTrie`, serves the verifier's walker
(:mod:`repro.core.verification`): a **slot-native** trie, no node objects
at all.  Every level has the same column width (``|Q^d| + 1``), so all
columns live as rows of **one** growable ``(capacity, width)`` float64
matrix, with slot 0 holding the root column.  Structure lives in one
``edges`` dict mapping ``(parent_slot, symbol) -> child_slot``, and the
two scalars a walk reads per visit (``min(column)`` — the Eq. 11
early-termination bound — and ``column[-1]`` — the emitted E value) live
once, as plain floats in the slot-indexed ``mins_list`` /
``lasts_list``, so the walk loop never touches a numpy scalar.  This is
what makes the trie *portable across queries*: a repeated query walks it
warm with no per-node object graph to rebuild or traverse.

A :class:`TrieCacheEntry` is one query's whole warm state: the query's
neighborhoods ``B(q)`` / ``c(q)`` and the count bound's table
(:class:`~repro.core.filtering.QueryNeighborhoods`), its one
substitution-row matrix — one row per data symbol of an uncached
suffix's view, ``costs.sub_row(symbol, query)``, with the symbol's
deletion cost beside it, in contiguous float64 arrays the native DP
kernel (:mod:`repro.core.wedkernel`) indexes by slot — and, per
``(iq, direction)``, one :class:`DirectionState`: the query part, where
it sits in a row (an offset and a step), its insertion costs and prefix,
and the :class:`VerificationTrie`.  The engine's :class:`TrieCache`
keeps entries across queries.

One rule covers concurrency: **an entry is walked by one verifier at a
time.**  The verifier holds :attr:`TrieCacheEntry.lock` for a whole
anchor group, so nothing under an entry — states, the row store, tries —
has a lock of its own.  A concurrent verifier of the same query waits
for at most one group, then walks the first one's columns as cache hits.
Writers still write a column (or a row) before the key that makes it
reachable (:meth:`VerificationTrie.publish`), but only for exception
safety: a walk that raises leaves no half-born edge behind.
"""

from __future__ import annotations

import sys
import threading
from collections import OrderedDict
from typing import Callable, Dict, Hashable, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.filtering import QueryNeighborhoods
from repro.distance.costs import CostModel
from repro.distance.wed import wed_row_init

__all__ = [
    "DirectionState",
    "TrieCache",
    "TrieCacheEntry",
    "VerificationTrie",
]

#: rows a fresh arena starts with; growth doubles.
_INITIAL_ROWS = 32
#: substitution rows a fresh entry's row store starts with; growth doubles.
_INITIAL_SYMBOL_ROWS = 16

# Per-column python-object bytes beyond the column matrix, *measured* on
# this interpreter (a fixed guess drifts on wide alphabets, where the
# edges dict dominates).  Each published column costs one edges entry — a
# 2-tuple key plus two boxed ints (slots and symbols exceed the small-int
# intern range on real graphs, so the boxes are real) and the boxed
# child-slot value — and two boxed floats appended to the scalar lists.
# The containers' own tables (dict hash table, list cells) are NOT folded
# in here: ``nbytes`` reads them exactly via ``sys.getsizeof`` at
# accounting time, which is O(1) per container and tracks hash-table
# growth for free.
_INT_OBJECT_BYTES = sys.getsizeof(1 << 20)
_EDGE_OBJECT_BYTES = sys.getsizeof((1 << 20, 1 << 20)) + 3 * _INT_OBJECT_BYTES
_FLOAT_OBJECT_BYTES = sys.getsizeof(0.5)


class VerificationTrie:
    """A slot-native trie rooted at the empty data prefix.

    The root column is ``wed(eps, Q^d_{1:j})`` for all ``j`` — the
    cumulative insertion costs of the query part.  One growable
    ``(capacity, width)`` matrix holds every column (slot 0 = root), the
    ``edges`` dict holds the structure, and ``mins_list``/``lasts_list``
    hold the per-column scalars as plain floats.
    """

    __slots__ = (
        "width",
        "matrix",
        "mins_list",
        "lasts_list",
        "edges",
        "used",
        "__weakref__",
    )

    def __init__(self, root_column: Sequence[float]) -> None:
        self.width = len(root_column)
        self.matrix = np.empty((_INITIAL_ROWS, self.width), dtype=np.float64)
        self.matrix[0] = root_column
        self.mins_list: List[float] = [float(min(root_column))]
        self.lasts_list: List[float] = [float(root_column[-1])]
        #: (parent_slot, symbol) -> child_slot; slot 0 is the root.
        self.edges: Dict[Tuple[int, int], int] = {}
        self.used = 1

    def reserve(self, count: int) -> int:
        """Reserve ``count`` contiguous rows; returns the first slot.
        Growth doubles the matrix, copying the rows in use."""
        start = self.used
        needed = start + count
        matrix = self.matrix
        capacity = matrix.shape[0]
        if needed > capacity:
            while capacity < needed:
                capacity *= 2
            grown = np.empty((capacity, self.width), dtype=np.float64)
            grown[:start] = matrix[:start]
            self.matrix = grown
        self.used = needed
        return start

    def publish(
        self,
        start: int,
        mins: List[float],
        lasts: List[float],
        keys: Iterable[Tuple[int, int]],
    ) -> None:
        """Make the rows from ``start`` on, already written, reachable:
        their scalars first, then one ``(parent_slot, symbol)`` edge per
        key, in row order (no keys: the rows stay unreachable)."""
        self.mins_list.extend(mins)
        self.lasts_list.extend(lasts)
        self.edges.update(zip(keys, range(start, start + len(mins))))

    def row(self, slot: int) -> np.ndarray:
        """The column stored at ``slot``."""
        return self.matrix[slot]

    def node_count(self) -> int:
        """Number of cached columns (root included) — a cache-size metric."""
        return self.used

    @property
    def nbytes(self) -> int:
        """Resident bytes, measured: the column matrix exactly
        (``ndarray.nbytes``), the bookkeeping containers exactly
        (``sys.getsizeof`` on the edges dict and the two scalar lists —
        O(1) each, capturing hash-table/list growth as it happens), plus
        the measured per-object cost of the boxed keys, slots, and
        scalar floats each published column pins (see
        ``_EDGE_OBJECT_BYTES`` / ``_FLOAT_OBJECT_BYTES``)."""
        # used - 1 edges: every column except the root was published
        # through exactly one edges entry.
        return (
            self.matrix.nbytes
            + sys.getsizeof(self.edges)
            + sys.getsizeof(self.mins_list)
            + sys.getsizeof(self.lasts_list)
            + max(0, self.used - 1) * _EDGE_OBJECT_BYTES
            + 2 * self.used * _FLOAT_OBJECT_BYTES
        )


class DirectionState:
    """One ``(iq, direction)``'s warm state: the query ``part`` itself,
    where it sits in a row of the entry's substitution-row matrix
    (``offset`` / ``step``), its insertion costs (``ins_row``, a list for
    the Python kernel and ``ins_array`` for the native one) and insertion
    prefix (the trie's root column, summed left to right by
    :func:`~repro.distance.wed.wed_row_init`; ``root`` holds it as a
    one-row matrix for local verification), and its
    :class:`VerificationTrie` — ``None`` until a verifier with tries on
    first walks this direction.

    The part is ``query[iq+1:]`` forward and the reversed prefix
    ``query[iq-1::-1]`` backward: WED is invariant under simultaneous
    reversal because costs are position-independent.  A row of the
    entry's matrix is ``costs.sub_row(symbol, query)``, so the part's
    costs are the row read from ``offset`` with ``step``: ``iq + 1`` and
    ``+1`` forward, ``iq - 1`` and ``-1`` backward.
    """

    __slots__ = (
        "part",
        "offset",
        "step",
        "ins_row",
        "ins_array",
        "ins_prefix",
        "root",
        "trie",
        "__weakref__",
    )

    def __init__(
        self, costs: CostModel, query: Tuple[int, ...], iq: int, direction: str
    ) -> None:
        if direction == "b":
            part = query[iq - 1 :: -1] if iq > 0 else ()
            self.offset, self.step = iq - 1, -1
        else:
            part = query[iq + 1 :]
            self.offset, self.step = iq + 1, 1
        self.part = part
        self.ins_row: List[float] = [costs.ins(q) for q in part]
        self.ins_array = np.array(self.ins_row, dtype=np.float64)
        self.ins_prefix: List[float] = wed_row_init(costs, part)
        self.root = np.array([self.ins_prefix], dtype=np.float64)
        self.trie: Optional[VerificationTrie] = None

    @property
    def nbytes(self) -> int:
        """Bytes the trie pins (the part's own costs are not counted)."""
        return 0 if self.trie is None else self.trie.nbytes


class TrieCacheEntry:
    """One query's whole warm state, built from ``(costs, query)``: the
    query's :class:`~repro.core.filtering.QueryNeighborhoods` (built on
    first :meth:`neighborhoods` call), its substitution rows (one store,
    below) and one :class:`DirectionState` per ``(iq, direction)`` its
    verifications have touched — the only place that key is held.
    Nothing under an entry refers back to it, so an evicted entry's
    arrays go the moment the last verifier holding it drops it, with no
    wait for the cyclic collector.

    The row store holds one row per data symbol of an uncached suffix's
    view in the query's verifications, in any direction: the walker
    resolves every such symbol before its kernel call.  ``slots`` maps
    the symbol to its slot, row ``slot`` of the ``(capacity, |Q|)``
    float64 matrix ``rows`` is ``costs.sub_row(symbol, query)`` and
    ``dels[slot]`` is ``costs.delete(symbol)``.  :meth:`row_slot` fills
    a slot on the symbol's first touch; the arrays are allocated with
    the first row and their capacity doubles as rows are added.  Rows
    depend only on the query and the model, never on the dataset, the
    threshold or the time window, so they stay valid for as long as the
    entry lives.

    A verifier walks the entry only while it holds :attr:`lock` (see the
    module docstring); :attr:`nbytes` alone is read without it.
    """

    __slots__ = (
        "costs",
        "query",
        "directions",
        "hoods",
        "slots",
        "rows",
        "dels",
        "lock",
        "counted_bytes",
        "__weakref__",
    )

    def __init__(self, costs: CostModel, query: Sequence[int]) -> None:
        self.costs = costs
        #: the query string this entry's rows and columns are computed against.
        self.query: Tuple[int, ...] = tuple(query)
        self.directions: Dict[Tuple[int, str], DirectionState] = {}
        self.hoods: Optional[QueryNeighborhoods] = None
        #: symbol -> its row of :attr:`rows` and its entry of :attr:`dels`.
        self.slots: Dict[int, int] = {}
        self.rows = np.empty((0, len(self.query)), dtype=np.float64)
        self.dels = np.empty(0, dtype=np.float64)
        #: held by the one verifier walking this entry, a group at a time.
        self.lock = threading.Lock()
        #: the bytes a :class:`TrieCache` counts for this entry: ``None``
        #: while it is not cached, ``0`` on insertion, then
        #: :attr:`nbytes` as of its last :meth:`TrieCache.reconcile`.
        self.counted_bytes: Optional[int] = None

    def neighborhoods(self) -> QueryNeighborhoods:
        """The query's ``B(q)`` / ``c(q)``, computed on first call — by
        the engine's MinCand stage, or by a direct verifier's count
        bound.  Caller holds :attr:`lock`."""
        if self.hoods is None:
            self.hoods = QueryNeighborhoods(self.costs, self.query)
        return self.hoods

    def row_slot(self, symbol: int) -> int:
        """The slot of ``symbol``'s row, computed on first touch.  The
        slot is published only once its row and deletion cost are
        written, so a cost model raising mid-row leaves nothing behind.
        Growth replaces :attr:`rows` and :attr:`dels` with larger copies.
        Caller holds :attr:`lock`."""
        slot = self.slots.get(symbol)
        if slot is None:
            row = self.costs.sub_row(symbol, self.query)
            dele = self.costs.delete(symbol)
            slot = len(self.slots)
            if slot == len(self.dels):
                capacity = max(2 * slot, _INITIAL_SYMBOL_ROWS)
                rows = np.empty((capacity, len(self.query)), dtype=np.float64)
                rows[:slot] = self.rows
                dels = np.empty(capacity, dtype=np.float64)
                dels[:slot] = self.dels
                self.rows, self.dels = rows, dels
            self.rows[slot] = row
            self.dels[slot] = dele
            self.slots[symbol] = slot
        return slot

    def direction(self, iq: int, direction: str, with_trie: bool) -> DirectionState:
        """The state for one ``(iq, direction)``, created on first touch —
        and its trie too when ``with_trie``.  Caller holds :attr:`lock`."""
        key = (iq, direction)
        state = self.directions.get(key)
        if state is None:
            state = self.directions[key] = DirectionState(
                self.costs, self.query, iq, direction
            )
        if with_trie and state.trie is None:
            state.trie = VerificationTrie(state.ins_prefix)
        return state

    @property
    def nbytes(self) -> int:
        """Bytes this entry pins: its neighborhoods and bound table, its
        row store (the two arrays exactly, the ``slots`` dict's table by
        ``sys.getsizeof`` and a boxed key and slot per row), and its
        tries.  Read without :attr:`lock` (by :meth:`TrieCache.reconcile`),
        so the states are copied out before summing."""
        hoods = self.hoods
        total = 0 if hoods is None else hoods.nbytes
        slots = self.slots
        if slots:
            total += (
                self.rows.nbytes
                + self.dels.nbytes
                + sys.getsizeof(slots)
                + len(slots) * 2 * _INT_OBJECT_BYTES
            )
        for state in list(self.directions.values()):
            total += state.nbytes
        return total


class TrieCache:
    """The engine's one cross-query cache: an LRU of
    :class:`TrieCacheEntry` objects — a repeated query's substitution
    rows and DP columns, warm.

    Neither half depends on the threshold, the time window, or the
    dataset (a substitution row is a function of the query and the cost
    model; a column is keyed by its symbol *path*, not by which
    trajectory produced it).  So the serving layer's repeated (zipf)
    queries — including tau and time-window variations — skip
    substitution-row computation and start verification with every
    previously computed column warm, and online inserts need **no
    invalidation**: a new trajectory can only add new paths, and any
    shared prefix it has with cached paths maps to the exact same
    columns.

    Keys are the query-and-model prefix of the engine's normalized
    :func:`~repro.core.engine.query_signature`, so one cache is valid for
    exactly one engine/cost-model scope (or one group of shard engines
    over the same model: the in-process shard engines of a partitioned
    deployment share a single instance).

    Eviction is LRU, bounded two ways: ``capacity`` entries, and — since
    arenas and row stores keep growing *after* insertion as later
    queries extend them — a ``max_bytes`` budget enforced by
    :meth:`reconcile`, which the engine calls after each verification to
    re-account the one entry that verification walked and shed LRU
    entries until the total fits.  Only a verification grows an entry,
    and each reconciles its own, so :attr:`bytes` is exact whenever no
    verification is running.
    ``capacity == 0`` disables cross-query reuse entirely (``lookup``
    hands out a fresh, unshared entry without counting).  Thread-safe
    under its own lock, which is never taken while an entry's
    :attr:`~TrieCacheEntry.lock` is held (and takes no entry lock
    itself).  Evicting an entry that a running verifier still holds is
    safe — the verifier keeps its reference, the arrays are released when
    the last reference drops.
    """

    def __init__(self, capacity: int, max_bytes: Optional[int] = None) -> None:
        if capacity < 0:
            raise ValueError("trie cache capacity must be >= 0")
        if max_bytes is not None and max_bytes < 0:
            raise ValueError("trie cache byte budget must be >= 0")
        self.capacity = capacity
        self.max_bytes = max_bytes
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        #: the sum of the cached entries' ``counted_bytes``.
        self.bytes = 0
        self._lock = threading.Lock()
        self._entries: "OrderedDict[Hashable, TrieCacheEntry]" = OrderedDict()

    def __len__(self) -> int:
        return len(self._entries)

    def lookup(
        self, key: Hashable, factory: Callable[[], TrieCacheEntry]
    ) -> Tuple[TrieCacheEntry, str]:
        """The entry for ``key``, LRU-refreshed, and what happened:
        ``"hit"`` (warm entry reused), ``"miss"`` (``factory()`` built a
        fresh entry — this query verifies cold and warms the cache), or
        ``"off"`` (cache disabled: ``factory()`` builds a fresh entry
        that is never shared or counted).  The status feeds trace span
        attributes, so an operator can see warm vs. cold verification per
        query."""
        if self.capacity == 0:
            return factory(), "off"
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                self._entries.move_to_end(key)
                self.hits += 1
                return entry, "hit"
            self.misses += 1
            entry = factory()
            entry.counted_bytes = 0
            self._entries[key] = entry
            while len(self._entries) > self.capacity:
                self._evict_lru()
            return entry, "miss"

    def peek(self, key: Hashable) -> Optional[TrieCacheEntry]:
        """The entry for ``key`` without counting or refreshing (tests /
        diagnostics)."""
        with self._lock:
            return self._entries.get(key)

    def keys(self) -> List[Hashable]:
        """Keys in LRU order, least recent first (tests / diagnostics)."""
        with self._lock:
            return list(self._entries)

    def reconcile(self, entry: TrieCacheEntry) -> int:
        """Re-account ``entry``'s bytes and evict LRU entries past
        ``max_bytes``.

        Returns the post-eviction byte total.  Called by the engine after
        each verification with the entry it walked, because arenas and
        row stores grow while entries sit in the cache — insertion-time
        accounting alone would undercount.  No other entry is measured.
        An entry no longer cached (evicted meanwhile, or handed out with
        the cache off) changes nothing.  An oversized *single* entry is
        evicted too — one whose rows alone exceed the budget included
        (the budget is a hard cap); the query that produced it simply
        stays cold.
        """
        with self._lock:
            if entry.counted_bytes is not None:
                size = entry.nbytes
                self.bytes += size - entry.counted_bytes
                entry.counted_bytes = size
                if self.max_bytes is not None:
                    while self.bytes > self.max_bytes:
                        self._evict_lru()
            return self.bytes

    def _evict_lru(self) -> None:
        """Drop the least recently used entry and its counted bytes.
        Caller holds the cache lock."""
        _, entry = self._entries.popitem(last=False)
        self.bytes -= entry.counted_bytes
        entry.counted_bytes = None
        self.evictions += 1

    def stats(self) -> Dict[str, int]:
        """Observable counters (served via ``/healthz`` and service stats)."""
        with self._lock:
            return {
                "capacity": self.capacity,
                "size": len(self._entries),
                "bytes": self.bytes,
                "max_bytes": -1 if self.max_bytes is None else self.max_bytes,
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
            }
